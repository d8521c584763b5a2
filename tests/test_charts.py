import re

import pytest

from bandtopsis import (
    RunConfig,
    build_summary,
    charts_from_summary,
    emit_tables,
    run_pipeline,
)
from bandtopsis.charts import boxplot_svg
from bandtopsis.cli import cli_main

LINE_RE = re.compile(
    r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)"[^/]*'
    r'data-(criterion|alternative)="([^"]+)" data-role="(\w+)"'
)
BAR_RE = re.compile(
    r'<rect[^/]*data-alternative="([^"]+)" data-rank="(\d+)" data-count="(\d+)"'
)


@pytest.fixture(scope="module")
def social_report(social_matrix):
    return run_pipeline(social_matrix, RunConfig(custom_sets=((0.05,) * 12,)))


def _plot(report, out):
    """The figures `bandtopsis plot` writes for a run's tables under out."""
    emit_tables(report, out)
    assert cli_main(["plot", str(out)]) == 0
    return {p.name: p for p in sorted(out.glob("*.svg"))}


@pytest.fixture(scope="module")
def figures(social_report, tmp_path_factory):
    return _plot(social_report, tmp_path_factory.mktemp("charts"))


def _whisker_spans(svg_text):
    spans = {}
    for m in LINE_RE.finditer(svg_text):
        if m.group(7) == "whisker":
            spans[m.group(6)] = abs(float(m.group(4)) - float(m.group(2)))
    return spans


def test_all_four_figures_written(figures):
    assert sorted(figures) == ["figure2.svg", "figure3.svg", "figure4.svg", "figure5.svg"]
    for p in figures.values():
        text = p.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")


def test_weight_boxplot_widest_band_is_widest_box(figures):
    spans = _whisker_spans(figures["figure2.svg"].read_text())
    assert len(spans) == 12
    # g11 carries the widest weight band in the social case study
    assert max(spans, key=spans.get) == "g11"


def test_rank_bars_concentrate_a3_at_rank_six(figures):
    bars = {
        (m.group(1), int(m.group(2))): int(m.group(3))
        for m in BAR_RE.finditer(figures["figure3.svg"].read_text())
    }
    a3 = {r: bars[("a3", r)] for r in range(1, 7)}
    assert max(a3, key=a3.get) == 6
    assert sum(a3.values()) == 10_000


def test_final_bar_chart_orders_by_position(figures):
    text = figures["figure5.svg"].read_text()
    entries = re.findall(r'data-alternative="(\w+)" data-position="(\d+)" data-modal="(\d+)"', text)
    by_position = sorted(entries, key=lambda e: int(e[1]))
    assert [e[0] for e in by_position] == ["a1", "a2", "a4", "a5", "a6", "a3"]
    assert [int(e[2]) for e in by_position] == [6, 5, 4, 3, 2, 1]


def test_zero_width_boxes_collapse():
    fives = [
        {"min": 0.3, "q1": 0.3, "median": 0.3, "q3": 0.3, "max": 0.3},
        {"min": 0.1, "q1": 0.2, "median": 0.25, "q3": 0.3, "max": 0.4},
    ]
    svg = boxplot_svg("t", ["flat", "spread"], fives, "criterion")
    roles = {m.group(6): m.group(7) for m in LINE_RE.finditer(svg)}
    assert roles["flat"] == "collapsed"
    assert roles["spread"] == "whisker"


def test_chart_bytes_deterministic(social_report, tmp_path):
    a = _plot(social_report, tmp_path / "a")
    b = _plot(social_report, tmp_path / "b")
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


def test_charts_rebuildable_from_summary_alone(social_report, figures):
    docs = charts_from_summary(build_summary(social_report))
    for name, svg in docs.items():
        assert svg == figures[name].read_text()
