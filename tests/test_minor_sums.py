"""The truncated inclusion-exclusion minor-sum engine behind perm_poly_derivs.

The oracle is the definition itself: c_k is the sum of the exact permanents
(permanent_tensor, which enumerates permutation tuples for matrices and
tensors alike) of the k-element principal subarrays, an enumeration that
shares no code with the engine. One test sums the same definition in exact rationals
(fractions.Fraction over itertools.permutations), so it rounds nothing.
"""

import cmath
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import permtaylor.engine as engine

from permtaylor import (
    ApproxConfig,
    SizeCapError,
    approx_log_permanent,
    minor_sum_work,
    perm_poly_derivs,
    permanent_ryser,
    permanent_tensor,
    principal_subtensor,
)
from permtaylor.components import _components, component_sums
from permtaylor.engine import _block_sizes, _co_subset_blocks, _pattern_blocks
from permtaylor.generators import random_admissible_tensor
from permtaylor.taylor import WORK_CAP

from conftest import run_cli


def _array(d, n, seed):
    return random_admissible_tensor(d, n, 0.7, np.random.default_rng(seed))


def _lone_sums(a, m):
    return [complex(c) for c in engine.minor_sums(a[None], m)[0]]


def _oracle_sums(a):
    n = a.shape[0]
    sums = [complex(1.0)]
    for k in range(1, n + 1):
        total = 0j
        for subset in itertools.combinations(range(n), k):
            total += permanent_tensor(principal_subtensor(a, subset))
        sums.append(total)
    return sums


@pytest.mark.parametrize(
    "d,n", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3)]
)
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
        want = sum(permanent_ryser(principal_subtensor(a, s)) for s in subsets)
        assert abs(g[k] / math.factorial(k) - want) <= 1e-13 * (1 + abs(want)), k


def test_tensor_levels_spanning_several_blocks_match_permanents():
    # at n = 12 the walk splits the 220 co-subsets of order 3 over two blocks
    n, m = 12, 3
    a = _array(3, n, 12)
    g = perm_poly_derivs(a, m)
    assert g[0] == 1
    for k in range(1, m + 1):
        subsets = itertools.combinations(range(n), k)
        want = sum(permanent_tensor(principal_subtensor(a, s)) for s in subsets)
        assert abs(g[k] / math.factorial(k) - want) <= 1e-13 * (1 + abs(want)), k
        assert perm_poly_derivs(a, k - 1) == g[:k]


@pytest.mark.parametrize("d,n", [(2, 7), (3, 4), (4, 3)])
def test_order_zero_is_exactly_one(d, n):
    g = perm_poly_derivs(_array(d, n, 7), n)
    assert g[0] == 1 and isinstance(g[0], complex)


@pytest.mark.parametrize("shape,m", [((1, 2, 2), 3), ((1, 3, 3, 3), 4), ((2, 3, 3), -1)])
def test_engine_rejects_an_order_outside_0_to_n(shape, m):
    want = rf"order m = {m} must satisfy 0 <= m <= n = {shape[1]}$"
    with pytest.raises(ValueError, match=want):
        engine.minor_sums(np.zeros(shape, complex), m)


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
    # d = 2: two partial sums of n^2, then n (m - u + 1) per tuple below order m - 1,
    # 2u + 2 at order m - 1 >= 1 (u lead factors, T and e_1), and 2u at order m
    assert minor_sum_work(6, 2, 2) == 2 * 36 + 1 * 6 * 3 + 6 * (2 + 2) + 15 * 2 * 2
    assert minor_sum_work(6, 2, 1) == 2 * 36 + 1 * 6 * 2 + 6 * 2
    assert minor_sum_work(6, 2, 0) == 2 * 36
    # d = 3: three non-empty axis sets per removed row, (u + 1)^2 gathers
    assert minor_sum_work(4, 3, 1) == 4 * 64 + 1 * 4 * (1 + 1) + 4 * 3 * 1 * 4
    assert minor_sum_work(100, 2, 3) < WORK_CAP
    # a dense n = 200 matrix at m = 4 runs under the default cap
    assert minor_sum_work(200, 2, 4) == 540_167_800 < WORK_CAP


def test_large_matrix_at_low_order_runs_under_default_cap():
    # lambda = 0.1 at n = 100 with epsilon = 0.01 selects m = 3
    rng = np.random.default_rng(11)
    a = random_admissible_tensor(2, 100, 0.1, rng)
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


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _in_new_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def test_workspace_reuse_across_calls_keeps_every_bit():
    # the references run in threads of their own, each on a workspace sized for it alone
    calls = [(2, 18, 6), (3, 5, 5), (2, 4, 4), (2, 18, 6)]
    arrays = {(d, n, m): _array(d, n, 50 + n) for d, n, m in calls}
    want = {
        key: _in_new_thread(lambda key=key: _bits(perm_poly_derivs(a, key[2])))
        for key, a in arrays.items()
    }
    for key in calls:
        assert _bits(perm_poly_derivs(arrays[key], key[2])) == want[key], key


def test_threads_keep_their_workspaces_apart():
    shapes = [(2, 18, 6), (3, 5, 5), (2, 12, 8), (4, 4, 4)]
    cases = [(_array(d, n, 60 + n), m) for d, n, m in shapes]
    want = [_bits(perm_poly_derivs(a, m)) for a, m in cases]
    got = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def work(i):
        start.wait(timeout=60)
        for _ in range(3):
            got[i].append(_bits(perm_poly_derivs(*cases[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[w] * 3 for w in want]


def test_warmed_engine_calls_take_no_page_faults():
    # the workspace is kept between calls, so warmed calls reuse pages already mapped
    resource = pytest.importorskip("resource")
    calls = [(_array(2, 18, 18), 6), (_array(3, 7, 7), 6)]
    for a, m in calls:
        _lone_sums(a, m)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        for a, m in calls:
            _lone_sums(a, m)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50


# interleaved shapes; m = 1 and n = 2, 3 give blocks of one column
PLAN_SHAPES = [(2, 18, 6), (3, 5, 5), (2, 2, 1), (2, 16, 6), (4, 4, 3), (2, 3, 3), (2, 18, 1),
               (5, 3, 3), (2, 12, 8), (3, 7, 2), (2, 2, 2), (2, 18, 6)]
# stacks of B arrays (d, n, m, B), whose programs hold B K columns a block
STACK_SHAPES = [(2, 2, 2, 9), (2, 12, 6, 2), (2, 5, 4, 3), (3, 3, 3, 4), (4, 3, 2, 3), (5, 2, 2, 2)]


def _plan_sums(shapes):
    return [_bits(_lone_sums(_array(d, n, 70 + n), m)) for d, n, m in shapes]


def _stack_sums(shapes):
    stacks = [np.stack([_array(d, n, 80 + b) for b in range(nb)]) for d, n, _, nb in shapes]
    return [_bits(engine._ryser_stack(s, m).ravel()) for s, (_, _, m, _) in zip(stacks, shapes)]


def test_cached_plans_keep_every_bit(monkeypatch):
    warm = _plan_sums(PLAN_SHAPES), _stack_sums(STACK_SHAPES)
    assert (_plan_sums(PLAN_SHAPES), _stack_sums(STACK_SHAPES)) == warm
    cold = [], []
    for shape in PLAN_SHAPES:
        engine._plans.clear()
        cold[0].extend(_plan_sums([shape]))
    for shape in STACK_SHAPES:
        engine._plans.clear()
        cold[1].extend(_stack_sums([shape]))
    assert cold == warm
    # a budget below every program compiles each call afresh, block by block
    monkeypatch.setattr(engine, "PLAN_BYTES", 0)
    engine._plans.clear()
    assert (_plan_sums(PLAN_SHAPES), _stack_sums(STACK_SHAPES)) == warm
    assert not engine._plans
    for (d, n, m), sums in zip(PLAN_SHAPES, warm[0]):
        if m:
            assert _plan_sums([(d, n, m - 1)])[0] == sums[:m]


def _held_arrays(program):
    """The arrays a program holds, each once, with the views of them that its steps hold."""
    owners, todo = {}, [program]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            owner = x if x.base is None else x.base
            owners.setdefault(id(owner), (owner, {}))[1][id(x)] = x
        elif isinstance(x, tuple):
            todo.extend(x)
    return [(owner, list(views.values())) for owner, views in owners.values()]


def test_plans_stay_within_their_budget(monkeypatch):
    monkeypatch.setattr(engine, "PLAN_BYTES", 60_000)
    engine._plans.clear()
    cached = set()
    shapes = [(2, n, m, 1) for n in range(2, 19) for m in (2, 4, 6)]
    shapes += [(d, n, m, 1) for d, n, m in PLAN_SHAPES] + STACK_SHAPES
    for d, n, m, nb in shapes:
        m = min(m, n)
        engine._ryser_stack(np.stack([_array(d, n, n + b) for b in range(nb)]), m)
        kept = list(engine._plans.values())
        assert sum(size for _, size in kept) <= engine.PLAN_BYTES
        for program, size in kept:
            held = _held_arrays(program)
            assert sum(owner.nbytes for owner, _ in held) == size
            # the steps view each array whole, once, and read-only
            assert all(sum(x.nbytes for x in views) == owner.nbytes for owner, views in held)
            assert not any(x.flags.writeable for owner, views in held for x in [owner, *views])
        # a program that fits is the most recently used one
        newest = next(reversed(engine._plans))
        if any(key[1:4] == (d, n, m) and key[-1] == nb for key in engine._plans):
            assert newest[1:4] == (d, n, m) and newest[-1] == nb
            cached.add(newest)
    # the programs for n = 18, m = 6 exceed the budget; many smaller ones were evicted
    assert all(key[1:4] != (2, 18, 6) for key in engine._plans)
    assert len(engine._plans) < len(cached)


def test_programs_above_the_budget_are_not_kept():
    # d = 5, n = 4, m = 4 takes 261 MB of pattern weights: compiled block by block
    engine._plans.clear()
    t = _array(5, 4, 5)
    want = _bits(_lone_sums(t, 4))
    assert not engine._plans
    size, _ = engine._program_bytes(5, 4, 4, [_block_sizes(4, 15, u) for u in range(5)], 1)
    assert size > 200e6
    assert _bits(_lone_sums(t, 4)) == want
    # a shape that fits is kept
    _lone_sums(t[:3, :3, :3, :3, :3], 2)
    assert [key[1:4] for key in engine._plans] == [(5, 3, 2)]


def test_threads_share_plans_bit_for_bit():
    shapes = [(2, 18, 6), (3, 5, 5), (2, 16, 6), (4, 4, 4)]
    want = _plan_sums(shapes)
    got = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(i):
        start.wait(timeout=60)
        for _ in range(3):
            got[i].append(_plan_sums(shapes[i:] + shapes[:i]))

    engine._plans.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[want[i:] + want[:i]] * 3 for i in range(4)]


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_plan_dtype_boundaries_match_small_principal_permanents(n):
    # the walk's rows of n = 255 are uint8, those of n = 256 uint16, and the
    # positions computed from them must not wrap
    a = _array(2, n, n)
    diag = np.diag(a)
    pairs = (diag.sum() ** 2 - (diag**2).sum()) / 2 + ((a * a.T).sum() - (diag**2).sum()) / 2
    c = _lone_sums(a, 2)
    assert _close(c[1], diag.sum()) and _close(c[2], pairs)


def test_plan_rows_widen_before_the_tensor_stride():
    # d = 3, n = 16: the walk's rows are uint8, the stride (n + 1)^2 = 289 does not fit
    n = 16
    t = _array(3, n, 16)
    c = _lone_sums(t, 2)
    assert _close(c[1], sum(t[i, i, i] for i in range(n)))
    pairs = sum(
        permanent_tensor(principal_subtensor(t, s)) for s in itertools.combinations(range(n), 2)
    )
    assert _close(c[2], pairs)


@pytest.mark.parametrize("d", [2, 3])
def test_block_outside_the_array_raises(monkeypatch, d):
    # the gathers clip their indices, so the engine checks each block itself
    def walk(n, m, caps):
        yield np.zeros((0, 1), dtype=np.intp), None
        yield np.array([[n]]), np.zeros(1, dtype=np.intp)

    monkeypatch.setattr(engine, "_co_subset_blocks", walk)
    with pytest.raises(IndexError):
        _lone_sums(_array(d, 4, 1), 2)


def test_top_order_e1_keeps_the_recurrences_running_sum():
    # below the top order e_1 is r_0 + r_1 + ... in row order, which numpy's reduction
    # over a leading axis keeps for two or more columns; one column would sum pairwise
    rng = np.random.default_rng(4)
    for n, k in [(9, 2), (18, 3), (200, 64)]:
        r = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 8, size=(n, k))
        r = r + 1j * rng.normal(size=(n, k))
        running = np.zeros(k, dtype=complex)
        for row in r:
            running += row
        assert np.add.reduce(r, axis=0).tobytes() == running.tobytes()
        # a matrix block's e_1 is T(U) less its lead factors in row order, for any
        # column count: subtract never sums pairwise, so a lone column gives those bits
        left = r[0].copy()
        for row in r[1:]:
            left -= row
        assert np.subtract.reduce(r, axis=0).tobytes() == left.tobytes()
        assert np.subtract.reduce(r[:, :1], axis=0).tobytes() == left[:1].tobytes()
    # at m = 1 the root block is a single column; for a diagonal matrix every other
    # block adds zero, so c_1 is the diagonal added in order
    diag = rng.normal(size=18) * 10.0 ** rng.integers(-8, 8, size=18) + 0.5j
    running = 0j
    for x in diag:
        running += x
    assert _bits(_lone_sums(np.diag(diag), 1)[1:]) == _bits([running])


@pytest.mark.parametrize("d", [2, 3])
def test_compiled_position_outside_its_array_raises(monkeypatch, d):
    # with the walk's own check bypassed, row n + 1 gives positions past the array
    def walk(n, m, caps):
        yield np.zeros((0, 1), dtype=np.uint8), None
        yield np.array([[n + 1]], dtype=np.uint8), np.zeros(1, dtype=np.intp)

    monkeypatch.setattr(engine, "_checked_walk", walk)
    engine._plans.clear()
    with pytest.raises(IndexError, match="compiled position"):
        _lone_sums(_array(d, 4, 1), 2)
    assert not any(key[1:4] == (d, 4, 2) for key in engine._plans)


@pytest.mark.parametrize("d", [2, 3])
def test_cached_plan_does_not_hide_a_replaced_walk(monkeypatch, d):
    a = _array(d, 4, 1)
    _lone_sums(a, 2)

    def walk(n, m, caps):
        yield np.zeros((0, 1), dtype=np.intp), None
        yield np.array([[n - 1]]), np.ones(1, dtype=np.intp)  # no parent 1 at size 0

    monkeypatch.setattr(engine, "_co_subset_blocks", walk)
    with pytest.raises(IndexError):
        _lone_sums(a, 2)



def _fixed_point_free(k, d):
    """Tuples of d - 1 permutations of range(k) with no row that every one of them fixes."""
    return sum((-1) ** j * math.comb(k, j) * math.factorial(k - j) ** (d - 1) for j in range(k + 1))


# closed forms at sizes beyond every oracle's cap: every term of the engine's sums is
# an integer below 2^53, so the sums are exact in any summation order and on any CPU
@pytest.mark.parametrize("n,m", [(100, 3), (100, 4), (300, 3)])
def test_j_minus_i_gives_binomials_times_derangements(n, m):
    a = np.ones((n, n), dtype=complex) - np.eye(n)
    want = [math.comb(n, k) * _fixed_point_free(k, 2) for k in range(m + 1)]
    assert engine.minor_sums(a[None], m)[0].tolist() == want


@pytest.mark.parametrize("d,n", [(3, 7), (3, 8), (4, 5)])
def test_ones_tensor_with_zero_diagonal_gives_its_closed_form(d, n):
    t = np.ones((n,) * d, dtype=complex)
    t[(np.arange(n),) * d] = 0.0
    want = [math.comb(n, k) * _fixed_point_free(k, d) for k in range(n + 1)]
    assert engine.minor_sums(t[None], n)[0].tolist() == want


# c_k(tA) = t^k c_k(A): a complex t of modulus below 1 sends the same closed forms
# through complex rounding. Against 1 + |t^k c_k| the worst error seen is 1.8e-7, at
# (n, m) = (300, 3) and k = 3, where the truncated inclusion-exclusion cancels terms
# near 1e13; the tensors stay below 3e-10.
SCALE = cmath.rect(0.5, math.pi / 3)
SCALED_RTOL = 2e-5


def _scaled_closed_form(n, d, k):
    return cmath.rect(abs(SCALE) ** k * math.comb(n, k) * _fixed_point_free(k, d), k * math.pi / 3)


@pytest.mark.parametrize("n,m", [(100, 3), (300, 3)])
def test_scaled_j_minus_i_gives_scaled_binomials_times_derangements(n, m):
    a = SCALE * (np.ones((n, n), dtype=complex) - np.eye(n))
    got = engine.minor_sums(a[None], m)[0]
    for k in range(m + 1):
        want = _scaled_closed_form(n, 2, k)
        assert abs(got[k] - want) <= SCALED_RTOL * (1 + abs(want)), (k, got[k], want)


@pytest.mark.parametrize("d,n", [(3, 7), (4, 5)])
def test_scaled_ones_tensor_with_zero_diagonal_gives_its_closed_form(d, n):
    t = np.ones((n,) * d, dtype=complex)
    t[(np.arange(n),) * d] = 0.0
    got = engine.minor_sums((SCALE * t)[None], n)[0]
    for k in range(n + 1):
        want = _scaled_closed_form(n, d, k)
        assert abs(got[k] - want) <= SCALED_RTOL * (1 + abs(want)), (k, got[k], want)


def _block_diagonal(blocks):
    d, n = blocks[0].ndim, sum(len(b) for b in blocks)
    out = np.zeros((n,) * d, dtype=complex)
    at = 0
    for b in blocks:
        out[(slice(at, at + len(b)),) * d] = b
        at += len(b)
    return out


# components of one size share a pass; 12 x 12 matrices at m = 6 fill 924 of 2048
# columns, so a pass takes two of them, and 6^3 tensors at m = 6 take seven
@pytest.mark.parametrize("d,size,split", [(2, 2, [9]), (2, 12, [2, 1]), (3, 3, [4]),
                                          (3, 6, [7, 1])])
def test_batched_components_match_lone_calls_bit_for_bit(monkeypatch, d, size, split):
    blocks = [_array(d, size, 90 + i) for i in range(sum(split))]
    m = min(6, size)
    one_pass, passes = engine._ryser_stack, []

    def spy(stack, order):
        rows = one_pass(stack, order)
        passes.append((stack.copy(), order, rows.copy()))
        return rows

    monkeypatch.setattr(engine, "_ryser_stack", spy)
    reduced, groups = _components(_block_diagonal(blocks))
    assert [len(g) for g in groups] == [size] * len(blocks)
    sums = component_sums(reduced, groups, m, WORK_CAP)
    assert [len(stack) for stack, _, _ in passes] == split
    lone = []
    for stack, order, rows in passes:
        for b in range(len(stack)):
            assert np.array_equal(stack[b], blocks[len(lone)])
            lone.append(one_pass(stack[b][None], order)[0])
            assert _bits(rows[b]) == _bits(lone[-1])
    # the polynomials multiply in component order, as lone calls would
    want = [complex(1.0)] + [complex(0.0)] * m
    for c in lone:
        c = [complex(x) for x in c]
        want = [sum(c[j] * want[i - j] for j in range(min(i, m) + 1)) for i in range(m + 1)]
    assert _bits(sums) == _bits(want)


def _rational_minor_sums(a):
    """c_k and the same sums over |A|, exactly, from the definition.

    PER A_I sums, over (d - 1)-tuples of permutations of I, the product of
    the entries a[i, s_1(i), ..., s_(d-1)(i)]; each float is a Fraction
    without rounding.
    """
    d, n = a.ndim, a.shape[0]
    entry = {i: Fraction(float(a[i].real)) for i in itertools.product(range(n), repeat=d)}
    sums, mags = [Fraction(0)] * (n + 1), [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            for perms in itertools.product(itertools.permutations(subset), repeat=d - 1):
                term = Fraction(1)
                for q, i in enumerate(subset):
                    term *= entry[(i, *(p[q] for p in perms))]
                sums[k] += term
                mags[k] += abs(term)
    return sums, mags


def _product(p, q, m):
    return [sum(p[j] * q[k - j] for j in range(k + 1)) for k in range(m + 1)]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4)])
def test_engine_matches_exact_rational_sums(d, n):
    # |c_k - exact| <= 1e-13 sum_{|I|=k} PER |A_I|, plus a floor for when that sum is 0
    # (a zero diagonal at k = 1); the worst ratio seen on such inputs is 4e-15
    rng = np.random.default_rng(30 + 10 * d + n)
    pair = [rng.normal(size=(n,) * d) for _ in range(2)]
    pair[1][(np.arange(n),) * d] = 0.0
    exact = [_rational_minor_sums(a) for a in pair]
    both = [_product(exact[0][i], exact[1][i], n) for i in range(2)]
    for m in range(n + 1):
        # alone, and as two components of one size, which share an engine pass
        for arr, (want, mag) in [(pair[0], exact[0]), (pair[1], exact[1]),
                                 (_block_diagonal(pair), both)]:
            got = component_sums(*_components(np.asarray(arr, dtype=complex)), m, WORK_CAP)
            for k in range(m + 1):
                err = abs(Fraction(got[k].real) - want[k]), abs(got[k].imag)
                assert max(err) <= 1e-13 * (mag[k] + 1), (m, k, float(max(err)), float(mag[k]))
