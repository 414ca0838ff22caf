"""The support reduction in front of the minor-sum engine.

PER(I + zA) is the product of PER(I + zA_C) over the strong components C
of the pruned support, so perm_poly_derivs on a reducible array must equal
the unreduced oracle: the sums of permanent_ryser / permanent_tensor over
the principal subarrays of the array as given, cross-component entries
included.
"""

import itertools
import math

import numpy as np
import pytest

from permtaylor import (
    SizeCapError,
    perm_poly_derivs,
    permanent_ryser,
    permanent_tensor,
    principal_subtensor,
    zero_scan,
)
from permtaylor.engine import minor_sum_work, minor_sums
from permtaylor.taylor import _components, _minor_sums, _reach, _strong_components
from permtaylor.generators import block_extremal_matrix, random_admissible_tensor


def _oracle_sums(a):
    d, n = a.ndim, a.shape[0]
    sums = [complex(1.0)]
    for k in range(1, n + 1):
        total = 0j
        for s in itertools.combinations(range(n), k):
            if d == 2:
                total += permanent_ryser(principal_subtensor(a, s))
            else:
                total += permanent_tensor(principal_subtensor(a, s))
        sums.append(total)
    return sums


def _complex(rng, shape):
    return 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _block_triangular_matrix(n, seed):
    """Random complex blocks on the diagonal, random entries above them,
    with the vertices shuffled so that no component is contiguous."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) * 3 // n
    a = _complex(rng, (n, n))
    a[block[:, None] > block[None, :]] = 0.0
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def _pruned_tensor(d, n, seed):
    """Two blocks with random entries inside, joined by two entries whose
    arcs cross one way only: (i in B0, j in B1, k in B0, ...) crosses
    forward on axis 1, (i in B1, j in B1, k in B0, ...) back on axis 2.
    Their union digraph is strongly connected, so only pruning splits it.
    """
    rng = np.random.default_rng(seed)
    block = (np.arange(n) >= n // 2).astype(int)
    t = np.zeros((n,) * d, dtype=np.complex128)
    for b in (0, 1):
        rows = np.flatnonzero(block == b)
        sub = _complex(rng, (len(rows),) * d) * (rng.random((len(rows),) * d) < 0.5)
        t[np.ix_(*(rows,) * d)] = sub
        # a cycle through the block on every axis keeps it strongly connected
        t[(rows,) + (np.roll(rows, 1),) * (d - 1)] = 0.2
    b0, b1 = np.flatnonzero(block == 0), np.flatnonzero(block == 1)
    rest = tuple(int(rng.choice(b0)) for _ in range(d - 3))
    t[(int(rng.choice(b0)), int(rng.choice(b1)), int(rng.choice(b0))) + rest] = 0.4
    t[(int(rng.choice(b1)), int(rng.choice(b1)), int(rng.choice(b0))) + rest] = -0.3j
    perm = rng.permutation(n)
    return t[np.ix_(*(perm,) * d)]


def _check_against_oracle(a):
    n = a.shape[0]
    want = _oracle_sums(a)
    full = perm_poly_derivs(a, n)
    for k in range(n + 1):
        got = full[k] / math.factorial(k)
        assert abs(got - want[k]) <= 1e-12 * (1 + abs(want[k])), k
    for m in range(n):
        assert perm_poly_derivs(a, m) == full[: m + 1]
    assert perm_poly_derivs(a, n) == full


def _cycle(vertices, n):
    adj = np.zeros((n, n), dtype=bool)
    adj[vertices, np.roll(vertices, -1)] = True
    return adj


def _two_cycles():
    """The even and the odd vertices of 0..39 each form a cycle; two arcs
    lead from the even cycle to the odd one and none lead back."""
    adj = _cycle(np.arange(0, 40, 2), 40) | _cycle(np.arange(1, 40, 2), 40)
    adj[0, 1] = adj[10, 21] = True
    return adj


# the closure of a 64-vertex cycle or path changes on each of 6 squarings;
# that of the random digraphs (n <= 11) on at most 3
STRUCTURED = {
    "cycle": _cycle(np.arange(64), 64),
    "path": _cycle(np.arange(64), 64) & ~np.eye(64, k=-63, dtype=bool),
    "two-cycles": _two_cycles(),
    "no-arcs": np.zeros((7, 7), dtype=bool),
}


@pytest.mark.parametrize("case", [*range(30), *STRUCTURED])
def test_strong_components_match_the_transitive_closure(case):
    if case in STRUCTURED:
        adj = STRUCTURED[case]
    else:
        rng = np.random.default_rng(case)
        n = 1 + case % 11
        adj = rng.random((n, n)) < rng.uniform(0.0, 0.4)
    n = len(adj)
    label = _strong_components(adj)
    reach = np.eye(n, dtype=int) | adj
    for _ in range(n):
        reach = ((reach @ reach) > 0).astype(int)
    assert (_reach(adj) == reach.astype(bool)).all()
    assert ((label[:, None] == label[None, :]) == (reach & reach.T).astype(bool)).all()
    smallest = [np.flatnonzero(label == c)[0] for c in range(label.max() + 1)]
    assert smallest == sorted(smallest)


@pytest.mark.parametrize("n,seed", [(2, 1), (4, 2), (5, 3), (7, 4), (8, 5), (9, 6)])
def test_block_triangular_matrices_match_ryser(n, seed):
    a = _block_triangular_matrix(n, seed)
    assert len(_components(a)[1]) > 1
    _check_against_oracle(a)


@pytest.mark.parametrize("d,n,seed", [(3, 4, 1), (3, 5, 2), (3, 6, 3), (4, 4, 4), (4, 5, 5)])
def test_pruned_tensors_match_permanents(d, n, seed):
    t = _pruned_tensor(d, n, seed)
    at = np.nonzero(t)
    union = np.zeros((n, n), dtype=bool)
    for heads in at[1:]:
        union[at[0], heads] = True
    assert _strong_components(union).max() == 0
    reduced, groups = _components(t)
    assert np.count_nonzero(reduced) == np.count_nonzero(t) - 2
    assert len(groups) == 2
    _check_against_oracle(t)


def test_pruning_repeats_until_nothing_changes():
    # (1, 0, 3) leaves 1 -> 3 on axis 2 with no way back, so it goes first;
    # then (0, 1, 0) has lost its return arc 1 -> 0 on axis 1 and goes too
    t = np.zeros((4, 4, 4), dtype=np.complex128)
    t[0, 1, 0], t[1, 0, 3] = 0.5, 0.25j
    diag = np.array([0.1, -0.2, 0.3j, 0.4])
    t[np.arange(4), np.arange(4), np.arange(4)] = diag
    reduced, groups = _components(t)
    assert np.count_nonzero(reduced) == 4
    assert [list(g) for g in groups] == [[0], [1], [2], [3]]
    e = [1.0] + [0.0] * 4
    for x in diag:
        e = [e[0]] + [e[k] + x * e[k - 1] for k in range(1, 5)]
    sums, sizes = _minor_sums(t, 4, 10**9)
    assert sums == pytest.approx(e, abs=1e-15) and sizes == (1, 1, 1, 1)
    _check_against_oracle(t)


@pytest.mark.parametrize("d,n", [(2, 9), (2, 18), (3, 5), (4, 4)])
def test_dense_arrays_are_one_component_and_run_unreduced(d, n):
    rng = np.random.default_rng(17 * d + n)
    a = random_admissible_tensor(d, n, 0.5, rng)
    reduced, groups = _components(a)
    assert reduced is a and len(groups) == 1
    m = min(n, 5)
    assert _minor_sums(a, m, 10**9) == ([complex(c) for c in minor_sums(a[None], m)[0]], (n,))


def test_cap_is_charged_per_component():
    b = block_extremal_matrix(18, 0.4, -1)
    assert [len(g) for g in _components(b)[1]] == [2] * 9
    work = 9 * minor_sum_work(2, 2, 2)
    assert work < minor_sum_work(18, 2, 6)
    g = perm_poly_derivs(b, 6, work_cap=work)
    # per(I + zA) = (1 - 0.16 z^2)^9
    want = [math.comb(9, k // 2) * (-0.16) ** (k // 2) if k % 2 == 0 else 0 for k in range(7)]
    for k in range(7):
        assert g[k] / math.factorial(k) == pytest.approx(want[k], abs=1e-15)
    with pytest.raises(SizeCapError):
        perm_poly_derivs(b, 6, work_cap=work - 1)


def test_zero_scan_of_a_reducible_matrix_uses_the_full_polynomial():
    a = _block_triangular_matrix(7, 11)
    assert len(_components(a)[1]) > 1
    report = zero_scan(a, radius=2.0, radial=9, angular=12)
    want = _oracle_sums(a)
    thetas = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    z = np.linspace(0.0, 2.0, 9)[:, None] * np.exp(1j * thetas)
    moduli = np.abs(sum(c * z**k for k, c in enumerate(want)))
    assert np.allclose(report.moduli, moduli, rtol=1e-12, atol=1e-12)
