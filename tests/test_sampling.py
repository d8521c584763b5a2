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
    rwm = sample_weight_matrix(b, 10_000, seed=123)
    assert np.all(rwm.rows >= b.lower)
    assert np.all(rwm.rows <= b.upper)


def test_same_seed_reproduces_bitwise():
    b = WeightBounds([0.0, 0.1, 0.2], [0.5, 0.9, 0.2])
    a = sample_weight_matrix(b, 1000, seed=77)
    c = sample_weight_matrix(b, 1000, seed=77)
    assert np.array_equal(a.rows, c.rows)


def _drawn_one_at_a_time(bounds, t, seed, row_indices):
    """The t x n buffer of the draw body after drawing each of
    `row_indices`, in that order, as a range of one row."""
    rows, draw = _draw_body(bounds, t, seed)
    rows[...] = np.nan
    for i in row_indices:
        draw(i, i + 1)
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
    a = sample_weight_matrix(b, 100, seed=1).rows
    c = sample_weight_matrix(b, 100, seed=2).rows
    assert np.any(a != c)


def test_column_means_near_interval_midpoints():
    b = WeightBounds([0.2, 0.0, 0.5], [0.8, 0.4, 0.5])
    rwm = sample_weight_matrix(b, 100_000, seed=2024)
    mid = (b.lower + b.upper) / 2
    for j in range(3):
        if b.upper[j] > b.lower[j]:
            assert abs(rwm.rows[:, j].mean() - mid[j]) <= 0.01 * mid[j]
        else:
            assert np.all(rwm.rows[:, j] == mid[j])


def test_iterations_must_be_positive():
    b = WeightBounds([0.0], [1.0])
    with pytest.raises(ValueError):
        sample_weight_matrix(b, 0, seed=1)


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
    rwm = sample_weight_matrix(WeightBounds(lower, upper), t, seed)
    assert np.all(rwm.rows >= lower)
    assert np.all(rwm.rows <= upper)


# ------------------------------------------------- block-wise stream contract

_M64 = 2 ** 64 - 1
_B = kernels._BLOCK


def _plain_splitmix64(seed: int, start: int, count: int) -> list[float]:
    out = []
    for k in range(start, start + count):
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
    full = sample_weight_matrix(b, t, seed=2 ** 64 - 3).rows
    rows = [0, edge - 1, edge, edge + 1, 2 * edge, 2 * edge + 1, 2 * edge + 4]
    assert np.array_equal(_drawn_one_at_a_time(b, t, 2 ** 64 - 3, rows)[rows], full[rows])
