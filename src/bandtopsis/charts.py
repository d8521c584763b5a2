"""Deterministic SVG charts for a run.

Four figures are produced: per-criterion boxplots of the sampled weights,
per-alternative rank-occupancy bars, per-alternative closeness boxplots,
and the final ranking as a bar chart ordered by position. All geometry is
computed from the run data with fixed canvas constants and 2-decimal
coordinate formatting, so a given report always yields identical bytes.
Boxes span the linear-interpolation quartiles, whiskers the min/max.

Elements carry data-* attributes (criterion/alternative/rank) so the
charts are self-describing and testable.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pipeline import RunReport

WIDTH = 900
HEIGHT = 360
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

_PALETTE = ["#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
            "#dc7ec0", "#797979", "#d5bb67", "#82c6e2"]


def _f(x: float) -> str:
    return f"{x:.2f}"


def _esc(s: str) -> str:
    return (
        str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


class _Canvas:
    def __init__(self, title: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{_esc(title)}</text>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, **data):
        attrs = "".join(f' data-{k}="{_esc(v)}"' for k, v in data.items())
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{attrs}/>'
        )

    def rect(self, x, y, w, h, fill, stroke="#333333", **data):
        attrs = "".join(f' data-{k}="{_esc(v)}"' for k, v in data.items())
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"{attrs}/>'
        )

    def text(self, x, y, s, size=11, anchor="middle"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" font-size="{size}">{_esc(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _y_scale(lo: float, hi: float):
    span = hi - lo
    if span <= 0:
        span = 1.0
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def to_y(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - (v - lo) / span)

    return to_y


def _axis(c: _Canvas, lo: float, hi: float, to_y) -> None:
    c.line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM)
    c.line(MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM, WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = to_y(v)
        c.line(MARGIN_LEFT - 4, y, MARGIN_LEFT, y)
        c.text(MARGIN_LEFT - 8, y + 4, f"{v:.3f}", size=10, anchor="end")


def boxplot_svg(title: str, labels: list[str], fives: list[dict], kind: str) -> str:
    """One box-and-whisker per label from five-number summaries.

    Zero-spread entries collapse to a single tick at the shared value.
    """
    c = _Canvas(title)
    lo = min(f["min"] for f in fives)
    hi = max(f["max"] for f in fives)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    to_y = _y_scale(lo - pad, hi + pad)
    _axis(c, lo - pad, hi + pad, to_y)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    step = plot_w / len(labels)
    box_w = min(40.0, step * 0.5)
    for k, (label, f) in enumerate(zip(labels, fives)):
        cx = MARGIN_LEFT + step * (k + 0.5)
        data = {kind: label}
        if f["max"] > f["min"]:
            c.line(cx, to_y(f["min"]), cx, to_y(f["max"]), **data, role="whisker")
            c.line(cx - box_w / 4, to_y(f["min"]), cx + box_w / 4, to_y(f["min"]))
            c.line(cx - box_w / 4, to_y(f["max"]), cx + box_w / 4, to_y(f["max"]))
            c.rect(
                cx - box_w / 2,
                to_y(f["q3"]),
                box_w,
                max(to_y(f["q1"]) - to_y(f["q3"]), 0.0),
                fill=_PALETTE[k % len(_PALETTE)],
                **data,
                role="box",
            )
            c.line(cx - box_w / 2, to_y(f["median"]), cx + box_w / 2, to_y(f["median"]), width=2.0)
        else:
            c.line(cx - box_w / 2, to_y(f["median"]), cx + box_w / 2, to_y(f["median"]),
                   width=2.0, **data, role="collapsed")
        c.text(cx, HEIGHT - MARGIN_BOTTOM + 16, label, size=10)
    return c.render()


def rank_bars_svg(title: str, alternatives: list[str], counts: list[list[int]]) -> str:
    """Grouped bars: for each alternative, how often it held each rank
    (counts[a][r] for rank r + 1)."""
    c = _Canvas(title)
    m = len(alternatives)
    total = max(map(max, counts))
    to_y = _y_scale(0, total)
    _axis(c, 0, total, to_y)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    group_w = plot_w / m
    bar_w = group_w * 0.8 / m
    base = HEIGHT - MARGIN_BOTTOM
    for a in range(m):
        gx = MARGIN_LEFT + group_w * a + group_w * 0.1
        for r in range(m):
            x = gx + bar_w * r
            h = base - to_y(counts[a][r])
            c.rect(
                x, base - h, bar_w, h,
                fill=_PALETTE[r % len(_PALETTE)],
                alternative=alternatives[a],
                rank=str(r + 1),
                count=str(counts[a][r]),
            )
        c.text(gx + bar_w * m / 2, base + 16, alternatives[a], size=10)
    return c.render()


def final_bars_svg(title: str, alternatives: list[str], positions: list[int],
                   modal_scores: list[int]) -> str:
    """Final ranking: one bar per alternative ordered by position, bar
    height = modal score."""
    c = _Canvas(title)
    m = len(alternatives)
    top = max(modal_scores) if modal_scores else 1
    to_y = _y_scale(0, top)
    _axis(c, 0, top, to_y)

    order = sorted(range(m), key=lambda j: positions[j])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    step = plot_w / m
    bar_w = step * 0.6
    base = HEIGHT - MARGIN_BOTTOM
    for slot, j in enumerate(order):
        x = MARGIN_LEFT + step * slot + (step - bar_w) / 2
        h = base - to_y(modal_scores[j])
        c.rect(
            x, base - h, bar_w, h,
            fill=_PALETTE[slot % len(_PALETTE)],
            alternative=alternatives[j],
            position=str(positions[j]),
            modal=str(modal_scores[j]),
        )
        c.text(x + bar_w / 2, base + 16, f"{positions[j]}. {alternatives[j]}", size=10)
    return c.render()


def _charts_from_parts(alternatives, criteria_ids, rwm_fives, xi_fives,
                       rank_counts, positions, modal_scores) -> dict[str, str]:
    return {
        "figure2.svg": boxplot_svg(
            "Sampled weight distribution per criterion", criteria_ids, rwm_fives, "criterion"
        ),
        "figure3.svg": rank_bars_svg(
            "Rank occupancy per alternative", alternatives, rank_counts
        ),
        "figure4.svg": boxplot_svg(
            "Closeness distribution per alternative", alternatives, xi_fives, "alternative"
        ),
        "figure5.svg": final_bars_svg(
            "Final ranking by modal score", alternatives, positions, modal_scores
        ),
    }


def charts_from_summary(summary: dict) -> dict[str, str]:
    """Rebuild all four figures from a summary document alone."""
    alternatives = summary["alternatives"]
    ids = [c["id"] for c in summary["criteria"]]
    m = len(alternatives)
    # rank r count = score (m + 1 - r) count
    counts = [[summary["final"]["score_histograms"][a][m - r] for r in range(1, m + 1)]
              for a in range(m)]
    return _charts_from_parts(
        alternatives,
        ids,
        [summary["rwm_summary"][i] for i in ids],
        [summary["closeness_summary"][a] for a in alternatives],
        counts,
        summary["final"]["positions"],
        summary["final"]["modal_scores"],
    )


def emit_charts(report: RunReport, out_dir) -> dict[str, Path]:
    """Write figure2.svg ... figure5.svg for a run."""
    from .io import build_summary

    docs = charts_from_summary(build_summary(report))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, svg in docs.items():
        p = out / name
        with open(p, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
        paths[name] = p
    return paths
