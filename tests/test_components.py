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
from permtaylor.components import (
    _components,
    _reach,
    _strong_components,
    charge,
    component_sums,
)
from permtaylor.engine import minor_sum_work, minor_sums
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
    root = _strong_components(adj)
    reach = np.eye(n, dtype=int) | adj
    for _ in range(n):
        reach = ((reach @ reach) > 0).astype(int)
    assert (_reach(adj) == reach.astype(bool)).all()
    assert ((root[:, None] == root[None, :]) == (reach & reach.T).astype(bool)).all()
    # each component's root is its smallest vertex
    assert (root <= np.arange(n)).all() and (root[root] == root).all()


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
    assert component_sums(reduced, groups, 4, 10**9) == pytest.approx(e, abs=1e-15)
    _check_against_oracle(t)


@pytest.mark.parametrize("d,n", [(2, 9), (2, 18), (3, 5), (4, 4)])
def test_dense_arrays_are_one_component_and_run_unreduced(d, n):
    rng = np.random.default_rng(17 * d + n)
    a = random_admissible_tensor(d, n, 0.5, rng)
    reduced, groups = _components(a)
    assert reduced is a and len(groups) == 1
    m = min(n, 5)
    assert component_sums(a, groups, m, 10**9) == [complex(c) for c in minor_sums(a[None], m)[0]]


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


def _signed_zero_support(rng, n, density):
    """A sparse complex n x n support whose entries carry signed zeros:
    some nonzero entries have a -0.0 part, and some zero entries are
    -0.0 - 0.0j, which the reduced copy must hold as +0.0."""
    a = _complex(rng, (n, n)) * (rng.random((n, n)) < density)
    a.imag[rng.random((n, n)) < 0.3] = -0.0
    a[a == 0] = complex(-0.0, -0.0)
    return a


ORACLE_CASES = {
    **{
        f"random-{n}-{density}-{seed}": (n, density, seed)
        for n, density, seed in itertools.product([1, 2, 7, 23, 40], [0.02, 0.06, 0.15], [1, 2])
    },
    "block-18": block_extremal_matrix(18, 0.4, -1),
    "block-60": block_extremal_matrix(60, 0.4, -1),
    "path": 0.5 * np.eye(12, k=1, dtype=complex),
    "cycle": 0.5 * np.roll(np.eye(12, dtype=complex), 1, axis=1),
    "zero": np.full((9, 9), complex(-0.0, -0.0)),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_components_match_networkx_strong_components(case):
    nx = pytest.importorskip("networkx")
    a = ORACLE_CASES[case]
    if isinstance(a, tuple):
        n, density, seed = a
        a = _signed_zero_support(np.random.default_rng(seed), n, density)
    n = len(a)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(*np.nonzero(a)))
    want = sorted(sorted(c) for c in nx.strongly_connected_components(graph))
    reduced, groups = _components(a)
    assert [list(g) for g in groups] == want
    # one group keeps the array; more keep every nonzero entry's bits and
    # hold +0.0 at every zero
    if len(want) == 1:
        assert reduced is a
    else:
        copy = np.zeros_like(a)
        copy[a != 0] = a[a != 0]
        assert reduced.tobytes() == copy.tobytes()


def _bits(values):
    # float.hex tells -0.0 from +0.0, which == cannot
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, values)]


def _lone_component(d, n, seed):
    """One strong component whose entries carry -0.0 parts: dense for a
    tensor, and for a matrix a sparse support with -0.0 - 0.0j zeros,
    held together by a cycle."""
    rng = np.random.default_rng(seed)
    if d > 2:
        a = _complex(rng, (n,) * d)
        a.imag[rng.random(a.shape) < 0.5] = -0.0
        return a
    a = _signed_zero_support(rng, n, 0.2)
    a[np.arange(n), np.roll(np.arange(n), -1)] = complex(-0.2, -0.0)
    return a


@pytest.mark.parametrize("d,n,seed", [(2, 1, 1), (2, 5, 2), (2, 8, 3), (3, 3, 4), (3, 4, 5)])
def test_a_lone_component_is_the_engine_row_bit_for_bit(d, n, seed):
    a = _lone_component(d, n, seed)
    reduced, groups = _components(a)
    assert reduced is a and len(groups) == 1
    for m in range(n + 1):
        sums = component_sums(reduced, groups, m, 10**9)
        assert _bits(sums) == _bits(minor_sums(a[None], m)[0])


MULTI_CASES = {
    "sparse-12": lambda: _signed_zero_support(np.random.default_rng(7), 12, 0.15),
    "sparse-9": lambda: _signed_zero_support(np.random.default_rng(8), 9, 0.1),
    "block-18": lambda: block_extremal_matrix(18, 0.4, -1),
    "triangular-8": lambda: _block_triangular_matrix(8, 9),
    "pruned-3": lambda: _pruned_tensor(3, 5, 2),
    "pruned-4": lambda: _pruned_tensor(4, 4, 4),
}


@pytest.mark.parametrize("case", list(MULTI_CASES))
def test_components_multiply_in_order_bit_for_bit(case):
    a = MULTI_CASES[case]()
    n = a.shape[0]
    reduced, groups = _components(a)
    assert len(groups) > 1
    for m in range(n + 1):
        # each component's own row, multiplied into 1 in component order
        want = [complex(1.0)] + [complex(0.0)] * m
        for g in groups:
            row = minor_sums(principal_subtensor(reduced, g)[None], min(m, len(g)))[0].tolist()
            want = [sum(row[j] * want[i - j] for j in range(min(i, len(row) - 1) + 1))
                    for i in range(m + 1)]
        assert _bits(component_sums(reduced, groups, m, 10**9)) == _bits(want)


@pytest.mark.parametrize("sizes", [(18,), (16,), (2,) * 9, (6, 1, 4, 6, 2), (3, 3, 5)])
@pytest.mark.parametrize("d", [2, 3])
def test_order_saving_is_the_charge_of_the_step_down(sizes, d):
    # a component with n_C < m runs at n_C at both orders, so it saves nothing
    for m in range(max(sizes) + 2):
        saving = sum(minor_sum_work(s, d, m) - minor_sum_work(s, d, m - 1) for s in sizes if s >= m)
        assert charge(list(sizes), d, m) - charge(list(sizes), d, m - 1) == saving
