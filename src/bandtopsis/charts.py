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

WIDTH = 900
HEIGHT = 360
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
BASE = HEIGHT - MARGIN_BOTTOM

_PALETTE = ["#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
            "#dc7ec0", "#797979", "#d5bb67", "#82c6e2"]


def _f(x: float) -> str:
    return f"{x:.2f}"


def _esc(s: str) -> str:
    return (
        str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _data(data: dict) -> str:
    return "".join(f' data-{k}="{_esc(v)}"' for k, v in data.items())


class _Canvas:
    """A figure with its background, title and a y axis from lo to hi with
    five ticks; y(v) maps a value onto the plot height (a span of 1 when
    hi <= lo)."""

    def __init__(self, title: str, lo: float, hi: float):
        self.lo, self.span = lo, hi - lo
        if self.span <= 0:
            self.span = 1.0
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{_esc(title)}</text>',
        ]
        self.line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, BASE)
        self.line(MARGIN_LEFT, BASE, WIDTH - MARGIN_RIGHT, BASE)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            v = lo + frac * (hi - lo)
            y = self.y(v)
            self.line(MARGIN_LEFT - 4, y, MARGIN_LEFT, y)
            self.text(MARGIN_LEFT - 8, y + 4, f"{v:.3f}", size=10, anchor="end")

    def y(self, v: float) -> float:
        return MARGIN_TOP + (BASE - MARGIN_TOP) * (1.0 - (v - self.lo) / self.span)

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, **data):
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{_data(data)}/>'
        )

    def rect(self, x, y, w, h, fill, stroke="#333333", **data):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"{_data(data)}/>'
        )

    def bar(self, x, w, v, fill, **data):
        """A bar of width w from the baseline up to value v."""
        h = BASE - self.y(v)
        self.rect(x, BASE - h, w, h, fill, **data)

    def text(self, x, y, s, size=11, anchor="middle"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" font-size="{size}">{_esc(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def boxplot_svg(title: str, labels: list[str], fives: list[dict], kind: str) -> str:
    """One box-and-whisker per label from five-number summaries.

    Zero-spread entries collapse to a single tick at the shared value.
    """
    lo = min(f["min"] for f in fives)
    hi = max(f["max"] for f in fives)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    c = _Canvas(title, lo - pad, hi + pad)
    y = c.y

    step = PLOT_W / len(labels)
    box_w = min(40.0, step * 0.5)
    for k, (label, f) in enumerate(zip(labels, fives)):
        cx = MARGIN_LEFT + step * (k + 0.5)
        data = {kind: label}
        if f["max"] > f["min"]:
            c.line(cx, y(f["min"]), cx, y(f["max"]), **data, role="whisker")
            c.line(cx - box_w / 4, y(f["min"]), cx + box_w / 4, y(f["min"]))
            c.line(cx - box_w / 4, y(f["max"]), cx + box_w / 4, y(f["max"]))
            c.rect(cx - box_w / 2, y(f["q3"]), box_w, max(y(f["q1"]) - y(f["q3"]), 0.0),
                   fill=_PALETTE[k % len(_PALETTE)], **data, role="box")
            c.line(cx - box_w / 2, y(f["median"]), cx + box_w / 2, y(f["median"]), width=2.0)
        else:
            c.line(cx - box_w / 2, y(f["median"]), cx + box_w / 2, y(f["median"]),
                   width=2.0, **data, role="collapsed")
        c.text(cx, BASE + 16, label, size=10)
    return c.render()


def rank_bars_svg(title: str, alternatives: list[str], counts: list[list[int]]) -> str:
    """Grouped bars: for each alternative, how often it held each rank
    (counts[a][r] for rank r + 1)."""
    m = len(alternatives)
    c = _Canvas(title, 0, max(map(max, counts)))
    group_w = PLOT_W / m
    bar_w = group_w * 0.8 / m
    for a in range(m):
        gx = MARGIN_LEFT + group_w * a + group_w * 0.1
        for r in range(m):
            c.bar(gx + bar_w * r, bar_w, counts[a][r], _PALETTE[r % len(_PALETTE)],
                  alternative=alternatives[a], rank=str(r + 1), count=str(counts[a][r]))
        c.text(gx + bar_w * m / 2, BASE + 16, alternatives[a], size=10)
    return c.render()


def final_bars_svg(title: str, alternatives: list[str], positions: list[int],
                   modal_scores: list[int]) -> str:
    """Final ranking: one bar per alternative ordered by position, bar
    height = modal score."""
    m = len(alternatives)
    c = _Canvas(title, 0, max(modal_scores))
    step = PLOT_W / m
    bar_w = step * 0.6
    for slot, j in enumerate(sorted(range(m), key=lambda j: positions[j])):
        x = MARGIN_LEFT + step * slot + (step - bar_w) / 2
        c.bar(x, bar_w, modal_scores[j], _PALETTE[slot % len(_PALETTE)],
              alternative=alternatives[j], position=str(positions[j]),
              modal=str(modal_scores[j]))
        c.text(x + bar_w / 2, BASE + 16, f"{positions[j]}. {alternatives[j]}", size=10)
    return c.render()


def charts_from_summary(summary: dict) -> dict[str, str]:
    """Rebuild all four figures from a summary document alone."""
    alternatives = summary["alternatives"]
    ids = [c["id"] for c in summary["criteria"]]
    final = summary["final"]
    m = len(alternatives)
    # rank r count = score (m + 1 - r) count
    counts = [[final["score_histograms"][a][m - r] for r in range(1, m + 1)]
              for a in range(m)]
    return {
        "figure2.svg": boxplot_svg(
            "Sampled weight distribution per criterion", ids,
            [summary["rwm_summary"][i] for i in ids], "criterion"
        ),
        "figure3.svg": rank_bars_svg("Rank occupancy per alternative", alternatives, counts),
        "figure4.svg": boxplot_svg(
            "Closeness distribution per alternative", alternatives,
            [summary["closeness_summary"][a] for a in alternatives], "alternative"
        ),
        "figure5.svg": final_bars_svg(
            "Final ranking by modal score", alternatives, final["positions"],
            final["modal_scores"]
        ),
    }
