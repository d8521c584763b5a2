"""Output checks that do not trust the package's own arithmetic.

* ``weight_row``: the sampled weight row re-derived from the band limits
  with a plain-Python splitmix64 (integers, no numpy).
* ``single_topsis``: one weight vector ranked by a straight numpy TOPSIS.
* ``modal_positions``: the final positions re-derived in plain Python
  from the score histograms, with the documented tie chain.
* ``check_summary``: the invariants every run's summary must satisfy.

Only summary keys that exist in every version of the output contract are
read, and never the rwm tables, so that optional tables or extra summary
keys do not break the benchmark.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Final positions of a1..a6 on data/social.csv with the 0.05 custom set,
# as published; they hold for every seed in PINNED_SEEDS.
SOCIAL_POSITIONS = [1, 2, 6, 3, 4, 5]

# The default seed and the ten extra seeds the acceptance suite pins to
# SOCIAL_POSITIONS. `--seed n` selects PINNED_SEEDS[n % 11]: 0 gives the
# default 42, 2 gives the held-out 2024.
PINNED_SEEDS = [42, 101, 2024, 31337, 7, 555, 90210, 13, 777, 424242, 999983]

# summary.json keys present since the first release.
SUMMARY_KEYS = ("config", "alternatives", "criteria", "weights", "rwm_summary",
                "closeness_summary")
FINAL_KEYS = ("positions", "modal_scores", "score_histograms", "mean_scores",
              "mean_closeness", "order")

CLOSENESS_TOL = 1e-12   # einsum and a per-row sum may differ in the last ulps
SAMPLE_ROWS = 32

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class CheckFailed(Exception):
    """An operation produced a wrong or inconsistent output."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def workload_seed(n: int) -> int:
    return PINNED_SEEDS[n % len(PINNED_SEEDS)]


def _splitmix_unit(seed: int, k: int) -> float:
    z = ((seed & _M64) + (k + 1) * _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


def weight_row(lower, upper, seed: int, row: int) -> list[float]:
    """Row `row` of the sampled weight matrix: lower + u * (upper - lower)
    with u the splitmix64 stream value row * n + j."""
    n = len(lower)
    return [float(lo) + _splitmix_unit(seed, row * n + j) * (float(hi) - float(lo))
            for j, (lo, hi) in enumerate(zip(lower, upper))]


def single_topsis(values: np.ndarray, is_benefit: np.ndarray, w) -> np.ndarray:
    """Closeness of every alternative under one weight vector."""
    V = values / np.sqrt(np.sum(values * values, axis=0))
    best = np.where(is_benefit, V.max(axis=0), V.min(axis=0))
    worst = np.where(is_benefit, V.min(axis=0), V.max(axis=0))
    w = np.asarray(w, dtype=float)
    d_best = np.sqrt(np.sum(w * (V - best) ** 2, axis=1))
    d_worst = np.sqrt(np.sum(w * (V - worst) ** 2, axis=1))
    return d_worst / (d_best + d_worst)


def sample_row_indices(t: int, seed: int) -> list[int]:
    """A fixed spread of iteration rows, always including the first and last."""
    picks = {0, t - 1}
    picks.update((k * 2654435761 + seed) % t for k in range(SAMPLE_ROWS - 2))
    return sorted(picks)


def check_rows(report, seed: int) -> None:
    """Sampled weights, closeness and ranks of a fixed set of iteration
    rows against the plain re-derivations above."""
    matrix = report.matrix
    values = np.asarray(matrix.values, dtype=float)
    is_benefit = np.asarray(matrix.is_benefit, dtype=bool)
    lower, upper = report.bounds.lower.tolist(), report.bounds.upper.tolist()
    t = report.closeness.shape[0]
    for i in sample_row_indices(t, seed):
        w = weight_row(lower, upper, seed, i)
        require(report.rwm.rows[i].tolist() == w, f"weight row {i} differs from splitmix64")
        xi = single_topsis(values, is_benefit, w)
        gap = float(np.max(np.abs(report.closeness[i] - xi)))
        require(gap <= CLOSENESS_TOL, f"closeness row {i} off by {gap!r}")
        order = np.argsort(report.rank_matrix.ranks[i], kind="stable")
        require(bool(np.all(np.diff(xi[order]) <= CLOSENESS_TOL)),
                f"rank row {i} does not sort its closeness")


def modal_positions(histograms: list[list[int]], mean_closeness: list[float]):
    """(positions, modal scores) from score histograms: entry k of an
    alternative's histogram counts iterations that gave it score k + 1.
    Order by modal score (largest score among tied counts), then mean
    score, then mean closeness, then alternative index."""
    m = len(histograms)
    modal, mean_score = [], []
    for hist in histograms:
        top = max(hist)
        modal.append(max(k + 1 for k, c in enumerate(hist) if c == top))
        mean_score.append(Fraction(sum((k + 1) * c for k, c in enumerate(hist)), sum(hist)))
    order = sorted(range(m), key=lambda j: (-modal[j], -mean_score[j], -mean_closeness[j], j))
    positions = [0] * m
    for pos, j in enumerate(order, start=1):
        positions[j] = pos
    return positions, modal


def check_summary(summary: dict, t: int, positions_seen: list[int],
                  reference: list[int] | None) -> None:
    """Positions must agree across the caller's source, the summary and
    the histogram oracle; histograms must be consistent with t."""
    fin = summary["final"]
    hists = fin["score_histograms"]
    m = len(summary["alternatives"])
    require(len(hists) == m and all(len(h) == m for h in hists), "histogram shape")
    require(all(sum(h) == t for h in hists), "a histogram does not sum to t")
    require(all(sum(h[k] for h in hists) == t for k in range(m)),
            "a score is not given exactly once per iteration")
    positions, modal = modal_positions(hists, fin["mean_closeness"])
    require(fin["modal_scores"] == modal, "modal scores differ from the oracle")
    require(fin["positions"] == positions, "summary positions differ from the oracle")
    require(list(positions_seen) == positions, "reported positions differ from the oracle")
    require(fin["order"] == [summary["alternatives"][j] for j in
                             sorted(range(m), key=lambda j: positions[j])], "order list")
    if reference is not None:
        require(positions == reference, f"positions {positions} are not the published {reference}")


def stable_view(summary: dict) -> dict:
    """The summary restricted to SUMMARY_KEYS and FINAL_KEYS."""
    view = {k: summary[k] for k in SUMMARY_KEYS}
    view["final"] = {k: summary["final"][k] for k in FINAL_KEYS}
    return view
