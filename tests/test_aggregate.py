from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bandtopsis import build_rank_matrix, final_ranking, rank_frequency


def modal_score(scores, m):
    """Reference for one alternative's modal score: the histogram indexed
    by score (entry 0 unused) and its top score, the largest on a tie."""
    hist = np.bincount(np.asarray(scores, dtype=np.int64), minlength=m + 1)
    return int(np.flatnonzero(hist == hist.max())[-1]), hist


def brute_force_positions(rank_rows, xi_rows):
    """Independent reference aggregator built on Counter and exact
    Fraction means; used to cross-check final_ranking."""
    t = len(rank_rows)
    m = len(rank_rows[0])
    per_alt = []
    for j in range(m):
        scores = [m + 1 - rank_rows[i][j] for i in range(t)]
        freq = Counter(scores)
        best_count = max(freq.values())
        mode = max(s for s, c in freq.items() if c == best_count)
        mean_score = Fraction(sum(scores), t)
        mean_xi = sum(Fraction(xi_rows[i][j]) for i in range(t)) / t
        per_alt.append((j, mode, mean_score, mean_xi))
    ordered = sorted(per_alt, key=lambda e: (-e[1], -e[2], -e[3], e[0]))
    positions = [0] * m
    for place, entry in enumerate(ordered, 1):
        positions[entry[0]] = place
    return positions


# ------------------------------------------------------------- rank matrix

def test_single_iteration_matrix():
    rm = build_rank_matrix(np.array([[1, 2]]))
    assert rm.t == 1
    assert rm.ranks[0].tolist() == [1, 2]


@pytest.mark.parametrize("ranks", [[1, 2, 3], [[1, 2, 2]], [[0, 1, 2]], [[1, 2], [2, 3]]],
                         ids=["one-row-1d", "repeated-rank", "zero-rank", "rank-above-m"])
def test_malformed_rank_rows_rejected(ranks):
    with pytest.raises(ValueError):
        build_rank_matrix(np.array(ranks))


# -------------------------------------------------------------------- mode

def _first_alternative(rank_column, m):
    """final_ranking of rows that give alternative 0 the listed ranks and
    keep the others in index order."""
    rows = []
    for r in rank_column:
        others = [k for k in range(1, m + 1) if k != r]
        rows.append([r] + others)
    rows = np.array(rows)
    return final_ranking(build_rank_matrix(rows), np.zeros(rows.shape))


def test_mode_clear_majority():
    fin = _first_alternative([1, 1, 1, 2], m=6)  # scores 6, 6, 6, 5
    assert fin.modal_scores[0] == 6
    assert fin.score_histograms[0, 6] == 3 and fin.score_histograms[0, 5] == 1


def test_mode_multimodal_takes_largest():
    fin = _first_alternative([4, 4, 2, 2], m=6)  # scores 3, 3, 5, 5
    assert fin.modal_scores[0] == 5


def test_mode_is_histogram_maximizer():
    rng = np.random.default_rng(12)
    for _ in range(300):
        m = int(rng.integers(2, 7))
        t = int(rng.integers(1, 30))
        rows = np.array([rng.permutation(m) + 1 for _ in range(t)])
        fin = final_ranking(build_rank_matrix(rows), np.zeros((t, m)))
        hists = fin.score_histograms
        assert np.array_equal(hists[np.arange(m), fin.modal_scores], hists.max(axis=1))


# ----------------------------------------------------------- final ranking

def test_single_iteration_final_ranking_is_identity():
    rm = build_rank_matrix(np.array([[2, 1, 3]]))
    xi = np.array([[0.4, 0.9, 0.1]])
    fin = final_ranking(rm, xi)
    assert fin.positions.tolist() == [2, 1, 3]


def test_hand_built_three_by_five_case():
    rows = np.array([
        [1, 2, 3],
        [1, 3, 2],
        [2, 1, 3],
        [1, 2, 3],
        [3, 2, 1],
    ])
    xi = np.array([
        [0.9, 0.5, 0.1],
        [0.8, 0.2, 0.4],
        [0.4, 0.7, 0.2],
        [0.9, 0.6, 0.3],
        [0.1, 0.5, 0.9],
    ])
    rm = build_rank_matrix(rows)
    fin = final_ranking(rm, xi)
    assert fin.positions.tolist() == brute_force_positions(rows.tolist(), xi.tolist())
    # a1 holds rank 1 three times out of five
    assert fin.modal_scores[0] == 3
    assert fin.positions[0] == 1


def test_row_shuffle_leaves_final_ranking_unchanged():
    rng = np.random.default_rng(77)
    rows = np.array([rng.permutation(4) + 1 for _ in range(30)])
    xi = rng.uniform(size=(30, 4))
    fin = final_ranking(build_rank_matrix(rows), xi)
    perm = rng.permutation(30)
    fin2 = final_ranking(build_rank_matrix(rows[perm]), xi[perm])
    assert np.array_equal(fin.positions, fin2.positions)
    assert np.array_equal(fin.modal_scores, fin2.modal_scores)


def test_positions_always_a_permutation():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        t = int(rng.integers(1, 9))
        rows = np.array([rng.permutation(m) + 1 for _ in range(t)])
        xi = rng.uniform(size=(t, m))
        fin = final_ranking(build_rank_matrix(rows), xi)
        assert sorted(fin.positions.tolist()) == list(range(1, m + 1))


def test_against_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        m = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        rows = np.array([rng.permutation(m) + 1 for _ in range(t)])
        # quantized closeness makes exact mean-xi ties common, walking
        # the whole tie chain
        xi = rng.integers(0, 4, size=(t, m)) / 4.0
        fin = final_ranking(build_rank_matrix(rows), xi)
        assert fin.positions.tolist() == brute_force_positions(rows.tolist(), xi.tolist())


def test_histograms_and_mean_scores_match_per_column_scores():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        t = int(rng.integers(1, 40))
        rows = np.array([rng.permutation(m) + 1 for _ in range(t)])
        fin = final_ranking(build_rank_matrix(rows), rng.uniform(size=(t, m)))
        scores = m + 1 - rows
        for j in range(m):
            mode, hist = modal_score(scores[:, j], m)
            assert fin.modal_scores[j] == mode
            assert np.array_equal(fin.score_histograms[j], hist)
        assert fin.mean_scores.tobytes() == scores.mean(axis=0).tobytes()


def test_closeness_shape_mismatch_rejected():
    rm = build_rank_matrix(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        final_ranking(rm, np.zeros((2, 2)))


# ------------------------------------------------------------- frequencies

def test_rank_frequency_alternating():
    rm = build_rank_matrix(np.array([[1, 2], [2, 1]]))
    freq = rank_frequency(rm)
    assert freq.tolist() == [[1, 1], [1, 1]]


def test_rank_frequency_identical_rows():
    rm = build_rank_matrix(np.tile([2, 1, 3], (5, 1)))
    freq = rank_frequency(rm)
    assert freq[0].tolist() == [0, 5, 0]
    assert freq[1].tolist() == [5, 0, 0]
    assert freq[2].tolist() == [0, 0, 5]
    assert np.all(freq.sum(axis=1) == rm.t)
