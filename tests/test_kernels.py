import numpy as np

from bandtopsis import kernels


def _batch_distances_loops(V, a_pos, a_neg, w_rows):
    """Plain-loop reference for kernels.batch_distances."""
    t = w_rows.shape[0]
    m, n = V.shape
    dp = np.empty((t, m))
    dm = np.empty((t, m))
    for k in range(t):
        for i in range(m):
            sp = 0.0
            sm = 0.0
            for j in range(n):
                ep = V[i, j] - a_pos[j]
                em = V[i, j] - a_neg[j]
                sp += w_rows[k, j] * ep * ep
                sm += w_rows[k, j] * em * em
            dp[k, i] = np.sqrt(sp)
            dm[k, i] = np.sqrt(sm)
    return dp, dm


def _rank_rows_loops(xi):
    """Plain-loop reference for kernels.rank_rows: one plus the number of
    alternatives with higher closeness or an equal one at a lower index."""
    t, m = xi.shape
    ranks = np.empty((t, m), dtype=np.int64)
    for k in range(t):
        for i in range(m):
            r = 1
            for j in range(m):
                if xi[k, j] > xi[k, i] or (xi[k, j] == xi[k, i] and j < i):
                    r += 1
            ranks[k, i] = r
    return ranks


def _random_case(rng, t=40, m=6, n=9):
    V = rng.uniform(0.0, 1.0, size=(m, n))
    a_pos = V.max(axis=0)
    a_neg = V.min(axis=0)
    W = rng.uniform(0.01, 0.3, size=(t, n))
    return V, a_pos, a_neg, W


def test_numpy_distances_against_plain_loops():
    rng = np.random.default_rng(3)
    V, a_pos, a_neg, W = _random_case(rng)
    dp, dm = kernels.batch_distances(V, a_pos, a_neg, W)
    dp_ref, dm_ref = _batch_distances_loops(V, a_pos, a_neg, W)
    assert np.allclose(dp, dp_ref, atol=1e-13)
    assert np.allclose(dm, dm_ref, atol=1e-13)


def test_numpy_ranks_against_plain_loops():
    rng = np.random.default_rng(4)
    xi = rng.uniform(size=(60, 5))
    xi[10] = [0.5, 0.5, 0.2, 0.5, 0.2]  # tie-heavy row
    assert np.array_equal(kernels.rank_rows(xi), _rank_rows_loops(xi))
