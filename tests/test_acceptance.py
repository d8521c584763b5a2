"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see the
lines as they execute)."""

import dataclasses
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from bandtopsis import (
    RunConfig,
    WeightBounds,
    build_rank_matrix,
    compute_bounds,
    critic_weights,
    entropy_weights,
    final_ranking,
    normalize_custom_set,
    run_pipeline,
    sample_weight_matrix,
    topsis_run,
)
from bandtopsis.cli import cli_main
from bandtopsis.sampling import _draw_body
from conftest import (
    IDOCRIW_WEIGHTS,
    MEREC_WEIGHTS,
    REF_CRITIC,
    REF_ENTROPY,
    REF_LOWER,
    REF_POSITIONS,
    REF_UPPER,
    make_matrix,
)

EXTRA_SEEDS = [101, 2024, 31337, 7, 555, 90210, 13, 777, 424242, 999983]


def _verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _random_positive_matrix(rng, m=None, n=None):
    m = m or int(rng.integers(3, 8))
    n = n or int(rng.integers(2, 7))
    vals = rng.uniform(0.05, 10.0, size=(m, n))
    dirs = ["max" if b else "min" for b in rng.integers(0, 2, size=n)]
    return make_matrix(vals, dirs)


def test_criterion_01_entropy_weights(social_matrix):
    w = entropy_weights(social_matrix).weights.weights
    diff = float(np.max(np.abs(w - np.array(REF_ENTROPY))))
    _verdict(1, diff <= 0.001, f"entropy weights within 0.001 of reference (max diff {diff:.5f})")


def test_criterion_02_critic_weights(social_matrix):
    w = critic_weights(social_matrix).weights.weights
    diff = float(np.max(np.abs(w - np.array(REF_CRITIC))))
    _verdict(2, diff <= 0.001, f"critic weights within 0.001 of reference (max diff {diff:.5f})")


def test_criterion_03_custom_set_and_bounds(social_matrix):
    custom = normalize_custom_set([0.05] * 12, 12)
    displays_ok = all(f"{v:.3f}" == "0.083" for v in custom.weights)
    sets = [
        entropy_weights(social_matrix).weights,
        critic_weights(social_matrix).weights,
        custom,
    ]
    b = compute_bounds(sets)
    lo_diff = float(np.max(np.abs(b.lower - np.array(REF_LOWER))))
    hi_diff = float(np.max(np.abs(b.upper - np.array(REF_UPPER))))
    ok = displays_ok and lo_diff <= 0.001 and hi_diff <= 0.001
    _verdict(3, ok, f"custom set displays 0.083; bounds within 0.001 "
                    f"(lower {lo_diff:.5f}, upper {hi_diff:.5f})")


def test_criterion_04_full_pipeline_eleven_seeds(social_matrix):
    base = RunConfig(custom_sets=((0.05,) * 12,))
    agreed = []
    for seed in [base.seed] + EXTRA_SEEDS:
        cfg = dataclasses.replace(base, seed=seed)
        report = run_pipeline(social_matrix, cfg)
        agreed.append(report.final.positions.tolist() == REF_POSITIONS)
    # desk-scale runtime: one full 10,000-iteration run, kernels warm
    t0 = time.perf_counter()
    run_pipeline(social_matrix, base)
    elapsed = time.perf_counter() - t0
    ok = all(agreed) and elapsed < 1.0
    _verdict(4, ok, f"final positions {REF_POSITIONS} for default + 10 seeds "
                    f"({sum(agreed)}/11 agree), warm run {elapsed * 1000:.0f} ms < 1 s")


def test_criterion_05_single_shot_external_weight_vectors(social_matrix):
    results = [topsis_run(social_matrix, w) for w in (IDOCRIW_WEIGHTS, MEREC_WEIGHTS)]
    ok = all(r.ranks[0] == 1 and r.ranks[2] == 6 for r in results)
    _verdict(5, ok, "both published weight vectors rank a1 first and a3 last")


def test_criterion_06_scale_invariance_thousand_cases():
    rng = np.random.default_rng(606)
    worst = 0.0
    ranks_ok = True
    for _ in range(1000):
        matrix = _random_positive_matrix(rng)
        w = rng.uniform(0.01, 1.0, size=matrix.n)
        c = float(rng.uniform(0.001, 1000.0))
        r1 = topsis_run(matrix, w)
        r2 = topsis_run(matrix, c * w)
        worst = max(worst, float(np.max(np.abs(r1.closeness - r2.closeness))))
        ranks_ok = ranks_ok and np.array_equal(r1.ranks, r2.ranks)
    ok = worst <= 1e-12 and ranks_ok
    _verdict(6, ok, f"closeness invariant under weight scaling over 1000 cases "
                    f"(worst diff {worst:.2e}), ranks identical")


def test_criterion_07_critic_divisor_invariance_thousand_cases():
    rng = np.random.default_rng(707)
    worst = 0.0
    count = 0
    while count < 1000:
        matrix = _random_positive_matrix(rng)
        v = matrix.values
        if np.any(v.max(axis=0) == v.min(axis=0)):
            continue
        count += 1
        w1 = critic_weights(matrix, ddof=1).weights.weights
        w0 = critic_weights(matrix, ddof=0).weights.weights
        worst = max(worst, float(np.max(np.abs(w1 - w0))))
    ok = worst <= 1e-12
    _verdict(7, ok, f"critic weights agree across sigma divisors m-1 and m "
                    f"over 1000 matrices (worst diff {worst:.2e})")


def _oracle_positions(rank_rows, xi_rows):
    # independently coded: Counter histograms + exact Fraction means
    t, m = len(rank_rows), len(rank_rows[0])
    entries = []
    for j in range(m):
        scores = [m + 1 - rank_rows[i][j] for i in range(t)]
        hist = Counter(scores)
        peak = max(hist.values())
        mode = max(s for s, c in hist.items() if c == peak)
        entries.append((j, mode, Fraction(sum(scores), t),
                        sum(Fraction(x) for x in (row[j] for row in xi_rows)) / t))
    order = sorted(entries, key=lambda e: (-e[1], -e[2], -e[3], e[0]))
    pos = [0] * m
    for place, e in enumerate(order, 1):
        pos[e[0]] = place
    return pos


def test_criterion_08_aggregation_oracle_ten_thousand_cases():
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        rows = np.array([rng.permutation(m) + 1 for _ in range(t)])
        xi = rng.integers(0, 5, size=(t, m)) / 4.0  # exact ties are frequent
        fin = final_ranking(build_rank_matrix(rows), xi)
        if fin.positions.tolist() != _oracle_positions(rows.tolist(), xi.tolist()):
            mismatches += 1
    _verdict(8, mismatches == 0,
             f"aggregation matches brute-force oracle on 10,000 random stacks "
             f"({mismatches} mismatches)")


def test_criterion_09_sampling_contracts():
    rng = np.random.default_rng(909)
    containment_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.uniform(0, 0.5, size=n)
        b = rng.uniform(0, 0.5, size=n)
        bounds = WeightBounds(np.minimum(a, b), np.maximum(a, b))
        rwm = sample_weight_matrix(bounds, 500, int(rng.integers(0, 2 ** 32)))
        containment_ok &= bool(np.all(rwm.rows >= bounds.lower) and np.all(rwm.rows <= bounds.upper))

    bounds = WeightBounds([0.1, 0.0, 0.3], [0.2, 1.0, 0.9])
    full = sample_weight_matrix(bounds, 1000, seed=1234).rows
    again = sample_weight_matrix(bounds, 1000, seed=1234).rows
    reversed_fill, draw = _draw_body(bounds, 1000, 1234)
    reversed_fill[...] = np.nan
    for i in reversed(range(1000)):
        draw(i, i + 1)
    determinism_ok = np.array_equal(full, again) and np.array_equal(full, reversed_fill)

    wide = WeightBounds([0.2], [0.8])
    rows = sample_weight_matrix(wide, 100_000, seed=5).rows[:, 0]
    mid = 0.5
    mean_ok = abs(rows.mean() - mid) <= 0.01 * mid

    ok = containment_ok and determinism_ok and mean_ok
    _verdict(9, ok, f"containment {containment_ok}, bit-identical resampling and "
                    f"reverse-order fill {determinism_ok}, mean within 1% of midpoint "
                    f"({rows.mean():.4f} vs {mid})")


def test_criterion_10_byte_identical_reruns(social_csv, tmp_path, capsys):
    args = ["run", str(social_csv), "--iterations", "2000", "--seed", "42",
            "--custom", ",".join(["0.05"] * 12)]
    codes = []
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        codes += [cli_main(args + ["--out", out]), cli_main(["rwm", out])]
    capsys.readouterr()
    files = ["weights.csv", "weights_display.csv", "rwm.csv", "rwm_display.csv",
             "ranks.csv", "summary.json"]
    same = all(
        (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
        for f in files
    )
    ok = codes == [0, 0, 0, 0] and same
    _verdict(10, ok, "two identical runs emit byte-identical csv/json outputs")
