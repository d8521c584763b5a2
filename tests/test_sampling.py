import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandtopsis import (
    NamedWeightSet,
    WeightBounds,
    compute_bounds,
    critic_weights,
    entropy_weights,
    normalize_custom_set,
    sample_weight_matrix,
)
from bandtopsis import kernels
from bandtopsis.kernels import unit_uniforms
from bandtopsis.aggregate import five_number_columns
from bandtopsis.windows import _law_windows
from bandtopsis.sampling import _draw_body
from conftest import REF_LOWER, REF_UPPER


# ------------------------------------------------------------------- bounds

def test_bounds_social_case(social_matrix):
    sets = [
        entropy_weights(social_matrix).weights,
        critic_weights(social_matrix).weights,
        normalize_custom_set([0.05] * 12, 12),
    ]
    b = compute_bounds(sets)
    assert np.max(np.abs(b.lower - np.array(REF_LOWER))) <= 0.001
    assert np.max(np.abs(b.upper - np.array(REF_UPPER))) <= 0.001


def test_bounds_three_fictitious_sets():
    sets = [
        NamedWeightSet("a", [0.34, 0.45, 0.21]),
        NamedWeightSet("b", [0.23, 0.40, 0.37]),
        NamedWeightSet("c", [0.41, 0.37, 0.22]),
    ]
    b = compute_bounds(sets)
    assert b.lower.tolist() == pytest.approx([0.23, 0.37, 0.21])
    assert b.upper.tolist() == pytest.approx([0.41, 0.45, 0.37])


def test_bounds_singleton_collapses():
    s = NamedWeightSet("only", [0.6, 0.4])
    b = compute_bounds([s])
    assert np.array_equal(b.lower, s.weights)
    assert np.array_equal(b.upper, s.weights)


def test_bounds_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        compute_bounds([])
    with pytest.raises(ValueError, match="length"):
        compute_bounds([NamedWeightSet("a", [1.0]), NamedWeightSet("b", [0.5, 0.5])])


# ----------------------------------------------------------------- sampling

def test_zero_width_bounds_reproduce_the_vector():
    b = WeightBounds([0.3, 0.7], [0.3, 0.7])
    rwm = sample_weight_matrix(b, 50, seed=9)
    assert np.array_equal(rwm.rows, np.tile([0.3, 0.7], (50, 1)))


def test_containment_on_social_bounds(social_matrix):
    sets = [entropy_weights(social_matrix).weights, critic_weights(social_matrix).weights]
    b = compute_bounds(sets)
    rows = np.asarray(sample_weight_matrix(b, 10_000, seed=123).rows)
    assert np.all(rows >= b.lower)
    assert np.all(rows <= b.upper)


def test_same_seed_reproduces_bitwise():
    b = WeightBounds([0.0, 0.1, 0.2], [0.5, 0.9, 0.2])
    a = sample_weight_matrix(b, 1000, seed=77)
    c = sample_weight_matrix(b, 1000, seed=77)
    assert np.array_equal(a.rows, c.rows)


def _drawn_one_at_a_time(bounds, t, seed, row_indices):
    """A t x n array of NaN after the draw body has drawn each of
    `row_indices` into it, in that order, as a range of one row."""
    draw = _draw_body(sample_weight_matrix(bounds, t, seed), 1)
    rows = np.full((t, bounds.n), np.nan)
    for i in row_indices:
        draw(i, i + 1, rows[i:i + 1])
    return rows


def test_reverse_order_fill_matches_sequential():
    b = WeightBounds([0.1, 0.0], [0.4, 1.0])
    full = sample_weight_matrix(b, 200, seed=5).rows
    reordered = _drawn_one_at_a_time(b, 200, 5, reversed(range(200)))
    assert np.array_equal(full, reordered)


def test_single_rows_match_full_matrix():
    b = WeightBounds([0.0, 0.2, 0.1], [1.0, 0.8, 0.1])
    full = sample_weight_matrix(b, 64, seed=31).rows
    for i in (0, 1, 17, 63):
        assert np.array_equal(_drawn_one_at_a_time(b, 64, 31, [i])[i], full[i])


def test_different_seeds_differ():
    b = WeightBounds([0.0], [1.0])
    a = np.asarray(sample_weight_matrix(b, 100, seed=1).rows)
    c = np.asarray(sample_weight_matrix(b, 100, seed=2).rows)
    assert np.any(a != c)


def test_column_means_near_interval_midpoints():
    b = WeightBounds([0.2, 0.0, 0.5], [0.8, 0.4, 0.5])
    rows = np.asarray(sample_weight_matrix(b, 100_000, seed=2024).rows)
    mid = (b.lower + b.upper) / 2
    for j in range(3):
        if b.upper[j] > b.lower[j]:
            assert abs(rows[:, j].mean() - mid[j]) <= 0.01 * mid[j]
        else:
            assert np.all(rows[:, j] == mid[j])


def test_iterations_must_be_positive():
    b = WeightBounds([0.0], [1.0])
    with pytest.raises(ValueError):
        sample_weight_matrix(b, 0, seed=1)


@pytest.mark.parametrize("t, seed, fault", [
    (4, 2 ** 64, r"^seed must be in \[0, 2\^64\), got 18446744073709551616$"),
    (4, -1, r"^seed must be in \[0, 2\^64\), got -1$"),
    (0, 1, r"^iterations must be >= 1, got 0$"),
    (10 ** 9 + 1, 1, r"^iterations must be <= 1000000000, got 1000000001$"),
], ids=["seed-2^64", "seed-minus-1", "no-iterations", "past-the-limit"])
def test_a_draw_keeps_the_config_rules_of_a_run(t, seed, fault):
    # the stream reads the seed mod 2^64, so 2^64 would draw seed 0's rows
    # and -1 those of seed 2^64 - 1
    with pytest.raises(ValueError, match=fault):
        sample_weight_matrix(WeightBounds([0.0, 0.2], [1.0, 0.4]), t, seed)


def test_a_draw_takes_iterations_up_to_the_limit():
    # the rows are drawn only when read, so the largest t allocates nothing
    rwm = sample_weight_matrix(WeightBounds([0.0, 0.2], [1.0, 0.4]), 10 ** 9, 1)
    assert rwm.rows.shape == (10 ** 9, 2)


def test_generator_reference_values():
    # splitmix64 stream for seed 0, counters 0..2 (published vectors)
    z = unit_uniforms(0, 0, 3)
    expected = np.array([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
                        dtype=np.uint64)
    assert np.array_equal(z, (expected >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)


def test_uniforms_are_half_open_unit():
    u = unit_uniforms(99, 0, 10_000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


@given(
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.lists(st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_containment_property(seed, pairs, t):
    lower = np.array([min(a, b) for a, b in pairs])
    upper = np.array([max(a, b) for a, b in pairs])
    rows = np.asarray(sample_weight_matrix(WeightBounds(lower, upper), t, seed).rows)
    assert np.all(rows >= lower)
    assert np.all(rows <= upper)


# ------------------------------------------------- block-wise stream contract

_M64 = 2 ** 64 - 1
_B = kernels._BLOCK


def _plain_splitmix64(seed: int, start: int, count: int, stride: int = 1) -> list[float]:
    out = []
    for k in range(start, start + count * stride, stride):
        z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53)
    return out


@given(
    st.integers(min_value=0, max_value=_M64),
    st.integers(min_value=1, max_value=2 ** 48),
    st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 3]),
)
@example(1, 5, 3)
@settings(max_examples=25, deadline=None)
def test_uniforms_equal_plain_integer_splitmix64(seed, start, count):
    u = unit_uniforms(seed, start, count)
    assert u.dtype == np.float64 and u.shape == (count,)
    assert u.tolist() == _plain_splitmix64(seed, start, count)
    # numpy integers, as a slice bound or a shape entry may be, name the same values
    assert unit_uniforms(np.uint64(seed), np.int64(start), np.int64(count)).tolist() == u.tolist()


def test_single_rows_match_matrix_across_a_block_boundary():
    n = 7  # _B is a power of two, so some row straddles each block edge
    b = WeightBounds([0.0, 0.1, 0.2, 0.0, 0.05, 0.3, 0.0], [0.4, 0.1, 0.6, 1.0, 0.5, 0.9, 0.2])
    edge = _B // n
    assert edge * n < _B < (edge + 1) * n
    t = 2 * edge + 5
    full = np.asarray(sample_weight_matrix(b, t, seed=2 ** 64 - 3).rows)
    rows = [0, edge - 1, edge, edge + 1, 2 * edge, 2 * edge + 1, 2 * edge + 4]
    assert np.array_equal(_drawn_one_at_a_time(b, t, 2 ** 64 - 3, rows)[rows], full[rows])


@pytest.mark.parametrize("stride", [1, 2, 12, 40])
@pytest.mark.parametrize("count", [_B - 1, _B, _B + 1, 2 * _B + 3])
def test_strided_uniforms_equal_plain_integer_splitmix64(stride, count):
    # rows of `stride` values drawn in one fill, as a chunk of weight rows is: column j
    # is stream values start + j + k * stride, the uniforms weight column j is drawn
    # from, on both sides of a block edge
    seed, start = 2 ** 64 - 7, 2 ** 40 + 3
    u = np.empty((count, stride))
    kernels._fill_uniforms(seed, start, u.reshape(-1), kernels._uniform_scratch(u.size))
    assert u[:, -1].tolist() == _plain_splitmix64(seed, start + stride - 1, count, stride)


# -------------------------------------------------- the regenerated rows view

def _view_cases(n):
    """(rwm, its rows drawn whole): a band of n criteria over t rows that
    span three chunks of np.asarray and a stream block edge."""
    lower = np.linspace(0.0, 0.3, n)
    b = WeightBounds(lower, lower + np.linspace(0.4, 0.0, n))
    t = 3 * kernels._chunk_rows(n) + 5
    rwm = sample_weight_matrix(b, t, seed=2 ** 64 - 11)
    return rwm, np.asarray(rwm.rows)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 12, 40])
def test_indexed_rows_equal_slices_of_the_whole_grid(n, cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    rwm, full = _view_cases(n)
    rows = rwm.rows
    t, edge = full.shape[0], kernels._chunk_rows(n)
    assert rows.shape == full.shape == (t, n)
    keys = [0, edge - 1, edge, -1, slice(None), slice(edge - 3, edge + 4),
            slice(2 * edge - 1, None), slice(5, 5)]
    for key in keys:
        got = rows[key]
        assert got.dtype == np.float64 and got.shape == full[key].shape, key
        assert got.tobytes() == full[key].tobytes(), key
    # a row or a run of rows at step 1 is all the view reads
    for key in (t, slice(None, None, 7), slice(None, None, -3), (slice(None), 0),
                (edge + 1, slice(None, None, 2)), (0, n), (0, 0, 0)):
        with pytest.raises(IndexError):
            rows[key]


def test_the_view_takes_no_numpy_operators():
    # an operator would draw the whole t x n grid unseen; np.asarray shows it
    rwm = sample_weight_matrix(WeightBounds([0.1, 0.2], [0.3, 0.5]), 5, seed=1)
    rows, lower = rwm.rows, rwm.bounds.lower
    full = np.asarray(rows)
    for op in (lambda: lower <= rows, lambda: np.add(rows, 1), lambda: lower == rows,
               lambda: rows == 0.0, lambda: rows != 0.0, lambda: rows * 2.0):
        with pytest.raises(TypeError):
            op()
    assert full.shape == (5, 2)
    assert np.asarray(rows).tobytes() == full.tobytes() == rows[0:5].tobytes()


@pytest.mark.parametrize("n", [1, 2, 12, 40])
def test_regenerated_rwm_summary_equals_the_summary_of_the_whole_grid(n):
    # each drawn chunk is added to the windows, as run_pipeline's pass adds
    # it, and the rows are let go; no weight grid
    rwm, full = _view_cases(n)
    t, step = full.shape[0], kernels._chunk_rows(n)
    windows, draw = _law_windows(rwm, step), _draw_body(rwm, step)
    for lo in range(0, t, step):
        hi = min(t, lo + step)
        rows = np.empty((hi - lo, n))
        draw(lo, hi, rows)
        windows.add(rows)
    assert json.dumps(windows.summary(t)) == json.dumps(five_number_columns(full))
