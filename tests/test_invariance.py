"""Invariances of the method on random problems.

Each trial draws a problem of 3-9 alternatives x 2-6 criteria, with
column magnitudes from 1e-3 to 1e3 and random directions, and keeps it
only when its t = 2000 sampled draws rank it in more than one way, so a
broken invariance would move a histogram.

Rounding differs between a problem and its transformed copy, so weights
are compared within a tolerance. Entropy weights are the diversities
1 - E_j over their sum D, and each 1 - E_j carries the absolute rounding
of E_j, which is near 1: a weight therefore moves by ulps of 1 divided by
D, and a small weight by many of its own ulps. Every weight row (each
set and the band limits) is held to 4 ulps of 1 over D.
"""

import numpy as np

from bandtopsis import (
    RunConfig,
    batch_topsis,
    collect_weight_sets,
    compute_bounds,
    entropy_weights,
    run_pipeline,
    topsis_run,
)
from bandtopsis.pipeline import _weight_rows
from conftest import make_matrix

T = 2000
TRIALS = 100
EPS = np.spacing(1.0)


def _problems(seed):
    """(rng, values, directions, report) of TRIALS problems whose draws
    give more than one ranking; rng then draws each trial's transform."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < TRIALS:
        m, n = int(rng.integers(3, 10)), int(rng.integers(2, 7))
        values = rng.uniform(0.1, 1.0, (m, n)) * 10.0 ** rng.uniform(-3, 3, n)
        directions = rng.choice(["max", "min"], n)
        report = run_pipeline(make_matrix(values, directions), RunConfig(iterations=T))
        if len(np.unique(report.rank_matrix.ranks, axis=0)) > 1:
            found += 1
            yield rng, values, directions, report


def _weight_tolerance(values, directions):
    return 4 * EPS / entropy_weights(make_matrix(values, directions)).diversity.sum()


def _assert_weights_close(rows_a, rows_b, tol, columns=slice(None)):
    for (name_a, a), (name_b, b) in zip(rows_a, rows_b, strict=True):
        assert name_a == name_b
        assert np.max(np.abs(a[columns] - b)) <= tol, name_a


def test_scaling_one_column_keeps_the_ranking():
    for k, (rng, values, directions, report) in enumerate(_problems(1)):
        j = rng.integers(values.shape[1])
        scaled = values.copy()
        scaled[:, j] *= 10.0 ** rng.uniform(-150, 150)
        other = run_pipeline(make_matrix(scaled, directions), RunConfig(iterations=T))
        a, b = report.final, other.final
        assert np.array_equal(a.positions, b.positions), k
        assert np.array_equal(a.score_histograms, b.score_histograms), k
        assert np.array_equal(a.modal_scores, b.modal_scores), k
        _assert_weights_close(report.weight_table(), other.weight_table(),
                              _weight_tolerance(values, directions))


def test_permuting_alternatives_permutes_the_outputs():
    for k, (rng, values, directions, report) in enumerate(_problems(2)):
        p = rng.permutation(values.shape[0])
        other = run_pipeline(make_matrix(values[p], directions), RunConfig(iterations=T))
        assert np.array_equal(report.rank_matrix.ranks[:, p], other.rank_matrix.ranks), k
        assert np.array_equal(report.final.positions[p], other.final.positions), k
        assert np.array_equal(report.final.score_histograms[p],
                              other.final.score_histograms), k
        _assert_weights_close(report.weight_table(), other.weight_table(),
                              _weight_tolerance(values, directions))
        # on the same weight rows, closeness in (0, 1) moves by ulps of 1 at most
        xi, _ = batch_topsis(make_matrix(values[p], directions), report.rwm.rows)
        assert np.max(np.abs(report.closeness[:, p] - xi)) <= 4 * EPS, k


def test_permuting_criteria_permutes_weights_band_and_single_rankings():
    """The sampler draws counter i * n + j for criterion j of row i, so
    permuting criteria changes the sampled rows; only the weights, the
    band and single TOPSIS rankings map across."""
    config = RunConfig()
    for k, (rng, values, directions, _) in enumerate(_problems(3)):
        q = rng.permutation(values.shape[1])
        matrix = make_matrix(values, directions)
        permuted = make_matrix(values[:, q], directions[q])
        sets, other = collect_weight_sets(matrix, config), collect_weight_sets(permuted, config)
        _assert_weights_close(_weight_rows(sets, compute_bounds(sets)),
                              _weight_rows(other, compute_bounds(other)),
                              _weight_tolerance(values, directions), q)
        w = rng.uniform(0.1, 1.0, values.shape[1])
        assert np.array_equal(topsis_run(matrix, w).ranks, topsis_run(permuted, w[q]).ranks), k


def _row_scaling_tolerance(n):
    """Bound on how far closeness moves when a weight row of n criteria is
    scaled by any c > 0 that neither overflows nor underflows.

    With unit roundoff u = EPS / 2, each distance is the root of a sum of
    n non-negative products w_j * s_j, which carries at most n roundings,
    a relative error of n u. The scaled row's entries fl(c w_j) add one
    more, so the two sums differ from an exact ratio c by (2n + 1) u, and
    their roots (halving that, then rounding once each) from sqrt(c) by
    e = (n + 5/2) u. Closeness d- / (d+ + d-) moves by xi (1 - xi) times
    the difference of the two roots' relative errors, at most e / 2, and
    its add and divide round twice in each run, at most 4u in all:
    (n / 2 + 21 / 4) u = (2n + 21) EPS / 8, to first order in u.
    """
    return (2 * n + 21) * EPS / 8


def test_scaling_whole_weight_rows_keeps_closeness_and_ranks():
    for k, (rng, _, _, report) in enumerate(_problems(4)):
        matrix, rows = report.matrix, report.rwm.rows
        # a power of 4 scales every product and sum exactly, and each root by 2^j
        j = int(rng.integers(1, 21)) * int(rng.choice([-1, 1]))
        xi, ranks = batch_topsis(matrix, rows * 4.0 ** j)
        assert np.array_equal(xi, report.closeness), k
        assert np.array_equal(ranks, report.rank_matrix.ranks), k
        tol = _row_scaling_tolerance(matrix.n)
        xi, ranks = batch_topsis(matrix, rows * 10.0 ** rng.uniform(-3, 3))
        assert np.max(np.abs(xi - report.closeness)) <= tol, k
        # a row whose closest pair is more than 2 tol apart cannot change order
        apart = np.diff(np.sort(report.closeness, axis=1), axis=1).min(axis=1) > 2 * tol
        assert np.array_equal(ranks[apart], report.rank_matrix.ranks[apart]), k
