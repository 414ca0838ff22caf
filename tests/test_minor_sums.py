"""The truncated inclusion-exclusion minor-sum engine behind perm_poly_derivs.

The oracle is the definition itself: c_k is the sum of the exact permanents
(permanent_definitional for matrices, permanent_tensor for tensors) of the
k-element principal subarrays, an enumeration that shares no code with the
engine.
"""

import itertools
import math

import numpy as np
import pytest

from permtaylor import (
    ApproxConfig,
    SizeCapError,
    approx_log_permanent,
    minor_sum_work,
    perm_poly_derivs,
    permanent_definitional,
    permanent_ryser,
    permanent_tensor,
    principal_submatrix,
    principal_subtensor,
)
from permtaylor.generators import random_admissible_matrix, random_admissible_tensor
from permtaylor.taylor import WORK_CAP, _block_sizes, _co_subset_blocks, _pattern_blocks

from conftest import run_cli


def _array(d, n, seed):
    rng = np.random.default_rng(seed)
    if d == 2:
        return random_admissible_matrix(n, 0.7, rng)
    return random_admissible_tensor(d, n, 0.7, rng)


def _oracle_sums(a):
    d, n = a.ndim, a.shape[0]
    sums = [complex(1.0)]
    for k in range(1, n + 1):
        total = 0j
        for subset in itertools.combinations(range(n), k):
            if d == 2:
                total += permanent_definitional(principal_submatrix(a, subset))
            else:
                total += permanent_tensor(principal_subtensor(a, subset))
        sums.append(total)
    return sums


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_matches_principal_subarray_permanents(d, n):
    a = _array(d, n, 100 * d + n)
    want = _oracle_sums(a)
    for m in range(n + 1):
        g = perm_poly_derivs(a, m)
        assert len(g) == m + 1
        for k in range(m + 1):
            got = g[k] / math.factorial(k)
            assert abs(got - want[k]) <= 1e-13 * (1 + abs(want[k])), (m, k)


def test_matrix_levels_spanning_several_blocks_match_ryser():
    # at n = 14 the walk splits order 5 over several blocks
    n, m = 14, 5
    a = _array(2, n, 14)
    g = perm_poly_derivs(a, m)
    assert g[0] == 1
    for k in range(1, m + 1):
        subsets = itertools.combinations(range(n), k)
        want = sum(permanent_ryser(principal_submatrix(a, s)) for s in subsets)
        assert abs(g[k] / math.factorial(k) - want) <= 1e-13 * (1 + abs(want)), k


@pytest.mark.parametrize("d,n", [(2, 7), (3, 4), (4, 3)])
def test_order_zero_is_exactly_one(d, n):
    g = perm_poly_derivs(_array(d, n, 7), n)
    assert g[0] == 1 and isinstance(g[0], complex)


@pytest.mark.parametrize("d,n", [(2, 9), (2, 14), (3, 5), (4, 4)])
def test_truncated_orders_are_a_prefix_of_full_degree(d, n):
    a = _array(d, n, 8)
    full = perm_poly_derivs(a, n)
    for m in range(n):
        assert perm_poly_derivs(a, m) == full[: m + 1]


def test_tensor_result_is_bit_identical_across_threads_and_calls():
    t = _array(3, 6, 9)
    first = perm_poly_derivs(t, 6, threads=1)
    assert perm_poly_derivs(t, 6, threads=4) == first
    assert perm_poly_derivs(t, 6, threads=1) == first


@pytest.mark.parametrize("n,p,u", [(5, 1, 2), (20, 1, 3), (4, 3, 3), (10, 3, 5), (5, 7, 5), (4, 3, 0)])
def test_blocks_cover_each_tuple_once(n, p, u):
    sizes = [_block_sizes(n, p, v) for v in range(u + 1)]
    seen = []
    for rows, _ in _co_subset_blocks(n, u, [cap for cap, _ in sizes]):
        if len(rows) == u:
            assert 1 <= rows.shape[1] <= sizes[u][0]
            for vals in _pattern_blocks(p, u, sizes[u][1]):
                assert len(vals) <= sizes[u][1] and vals.shape[1] == u
                assert ((1 <= vals) & (vals <= p)).all()
                seen.extend((tuple(col), tuple(val)) for col in rows.T for val in vals)
    assert len(seen) == len(set(seen)) == math.comb(n, u) * p**u


# caps[1] = 3 splits the root's 7 children over three blocks
@pytest.mark.parametrize("caps", [[1, 3, 2, 5, 4], [1, 1024, 1024, 1024, 1024]])
def test_walk_lists_co_subsets_in_lexicographic_order(caps):
    n, m = 7, 4
    last, found = {}, {u: [] for u in range(m + 1)}
    for rows, parent in _co_subset_blocks(n, m, caps):
        u, k = rows.shape
        assert 1 <= k <= caps[u]
        if u:
            assert (rows[:-1] == last[u - 1][:, parent]).all()
        last[u] = rows
        found[u].extend(map(tuple, rows.T))
    for u in range(m + 1):
        assert found[u] == list(itertools.combinations(range(n), u))


def test_work_formula():
    # d = 2: two partial sums of n^2, then n (m - u + 1) per tuple below order m, 2u at it
    assert minor_sum_work(6, 2, 2) == 2 * 36 + 1 * 6 * 3 + 6 * 6 * 2 + 15 * 2 * 2
    # d = 3: three non-empty axis sets per removed row, (u + 1)^2 gathers
    assert minor_sum_work(4, 3, 1) == 4 * 64 + 1 * 4 * (1 + 1) + 4 * 3 * 1 * 4
    assert minor_sum_work(100, 2, 3) < WORK_CAP


def test_large_matrix_at_low_order_runs_under_default_cap():
    # lambda = 0.1 at n = 100 with epsilon = 0.01 selects m = 3
    rng = np.random.default_rng(11)
    a = random_admissible_matrix(100, 0.1, rng)
    res = approx_log_permanent(a, ApproxConfig(lam=0.1, epsilon=0.01))
    assert res.order_m == 3 and res.error_bound <= 0.01
    # c_1 and c_2 in closed form
    diag = np.diag(a)
    c2 = (diag.sum() ** 2 - (diag**2).sum()) / 2 + (a * a.T).sum() / 2 - (diag**2).sum() / 2
    assert abs(res.g_derivs[1] - diag.sum()) <= 1e-13
    assert abs(res.g_derivs[2] / 2 - c2) <= 1e-13


def test_work_cap_raises():
    with pytest.raises(SizeCapError):
        perm_poly_derivs(_array(2, 6, 10), 3, work_cap=10)
    with pytest.raises(SizeCapError):
        perm_poly_derivs(_array(3, 4, 10), 2, work_cap=10)


def test_cli_work_cap_exit_code(tmp_path):
    code, out, err = run_cli("gen", "matrix", "--n", "8", "--seed", "4")
    assert code == 0, err
    path = tmp_path / "m.json"
    path.write_text(out)
    code, out, err = run_cli("approx", "--work-cap", "10", str(path))
    assert code == 3
    assert out == "" and "cap" in err
