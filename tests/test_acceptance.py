"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is produced by an independent oracle computed here:
the permutation-sum enumeration, brute-force matching enumeration,
analytic power sums, the block closed form, or branch-tracked exact logs.
"""

import math
import time

import numpy as np

from permtaylor import (
    ApproxConfig,
    approx_log_permanent,
    choose_order,
    collapse,
    enumerate_matchings,
    exact_log_permanent,
    identity_tensor,
    log_derivatives,
    matching_stats,
    encode_tensor,
    permanent_ryser,
    permanent_tensor,
    permanent_tensor_slice_expansion,
    zero_scan,
)
from permtaylor.generators import (
    block_extremal_matrix,
    random_admissible_tensor,
    random_hypergraph,
)

from conftest import run_cli


def _report(num, label, start, checks):
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num:2d} ({label}): PASS "
          f"({elapsed:.1f}s, {checks} checks)")
    return elapsed


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_1_matrix_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checks = 0
    for i in range(200):
        n = 2 + i % 6  # cycles through 2..7
        m = _rand_complex(rng, (n, n))
        d = permanent_tensor(m)
        r = permanent_ryser(m)
        assert abs(r - d) <= 1e-10 * abs(d), (n, i)
        checks += 1
    elapsed = _report(1, "Ryser vs enumeration", start, checks)
    assert elapsed < 10.0


def test_criterion_2_tensor_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    checks = 0
    for i in range(100):
        n = 2 + i % 4  # cycles through 2..5
        t = _rand_complex(rng, (n, n, n))
        want = permanent_tensor(t)
        for axis in range(3):
            for coord in range(n):
                got = permanent_tensor_slice_expansion(t, axis, coord)
                assert abs(got - want) <= 1e-10 * abs(want), (n, i, axis, coord)
                checks += 1
    elapsed = _report(2, "slice expansion vs tensor permanent", start, checks)
    assert elapsed < 60.0


def test_criterion_3_matrix_error_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    m_order = choose_order(10, 0.5, 0.01)
    assert m_order == 7
    cfg = ApproxConfig(lam=0.5, epsilon=0.01, order_override=m_order)
    checks = 0
    for _ in range(100):
        a = random_admissible_tensor(2, 10, 0.5, rng)
        assert max(np.abs(a).sum(axis=1)) <= 0.5
        res = approx_log_permanent(a, cfg)
        ref = exact_log_permanent(a)
        assert abs(res.value - ref) <= 0.01
        checks += 1
    elapsed = _report(3, "matrix log within 0.01 at m=7", start, checks)
    assert elapsed < 120.0


def test_criterion_4_tensor_error_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    m_order = choose_order(4, 0.5, 0.05)
    assert m_order == 4
    cfg = ApproxConfig(lam=0.5, epsilon=0.05, order_override=m_order)
    checks = 0
    for _ in range(30):
        t = random_admissible_tensor(3, 4, 0.5, rng)
        assert max(np.abs(t).reshape(4, -1).sum(axis=1)) <= 0.5
        res = approx_log_permanent(t, cfg)
        ref = exact_log_permanent(t)
        assert abs(res.value - ref) <= 0.05
        checks += 1
    elapsed = _report(4, "tensor log within 0.05", start, checks)
    assert elapsed < 300.0


def test_criterion_5_extremal_block_family():
    start = time.perf_counter()
    closed = {1: 1.25**5, -1: 0.75**5}
    assert closed[1] == 3.0517578125
    assert closed[-1] == 0.2373046875
    for sign in (1, -1):
        a = block_extremal_matrix(10, 0.5, sign)
        per = permanent_ryser(np.eye(10) + a)
        assert abs(abs(per) - closed[sign]) <= 1e-12
        res = approx_log_permanent(a, ApproxConfig(0.5, 0.01))
        assert abs(res.value - math.log(closed[sign])) <= 0.01
    _report(5, "block family closed form", start, 4)


def test_criterion_6_zero_free_scan():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    checks = 0
    for i in range(500):
        n = 2 + i % 7  # cycles through 2..8
        a = random_admissible_tensor(2, n, 0.5, rng)
        rep = zero_scan(a, radial=64, angular=64)
        assert rep.min_modulus > 0.0, (n, i)
        checks += 1
    for i in range(100):
        n = 2 + i % 3  # cycles through 2..4
        t = random_admissible_tensor(3, n, 0.5, rng)
        rep = zero_scan(t, radial=64, angular=64)
        assert rep.min_modulus > 0.0, (n, i)
        checks += 1
    _report(6, "zero-free disk scan", start, checks)


def test_criterion_7_matching_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    checks = 0
    for i in range(50):
        n = 2 + i % 3  # cycles through 2..4
        h = random_hypergraph(3, n, int(rng.integers(2, 2 * n + 2)), rng, delta_cap=4)
        dists = [d for _, d in enumerate_matchings(h)]
        eye = identity_tensor(3, n)
        a = encode_tensor(h)
        for lam in (0.2, 0.4):
            brute = sum(lam**d for d in dists)
            per = permanent_tensor(eye + lam * lam * (a - eye))
            assert abs(per - brute) <= 1e-9 * abs(brute), (i, lam)
            stats = matching_stats(h, lam, epsilon=0.05)
            assert abs(stats.value - brute) / brute <= math.expm1(0.05), (i, lam)
            checks += 2
    _report(7, "matching identity and stats", start, checks)


def test_criterion_8_log_derivative_solve():
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    checks = 0
    for _ in range(20):
        cs = 0.4 * rng.uniform(0.2, 0.999, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
        # elementary symmetric coefficients of prod (1 + c_i z)
        coeffs = np.array([1.0 + 0j])
        for c in cs:
            coeffs = np.convolve(coeffs, [1.0, c])
        g = [math.factorial(k) * coeffs[k] for k in range(6)] + [0j, 0j, 0j]
        f = log_derivatives(g)
        for k in range(1, 9):
            want = (-1) ** (k - 1) * math.factorial(k - 1) * np.sum(cs**k)
            assert abs(f[k] - want) <= 1e-9 * abs(want), k
            checks += 1
    _report(8, "triangular log-derivative solve", start, checks)


def test_criterion_9_collapse_postconditions():
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    checks = 0
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        alphas = _rand_complex(rng, n)
        zs = _rand_complex(rng, n)
        if rng.uniform() < 0.1:
            alphas[rng.integers(n)] = 0.0
        out = collapse(alphas, zs)
        before = np.sum(alphas * zs)
        after = np.sum(alphas * out)
        assert abs(after - before) <= 1e-12 * (1 + abs(before))
        assert np.abs(out).sum() <= np.abs(zs).sum() + 1e-12
        assert np.count_nonzero(out) <= 1
        checks += 1
    _report(9, "linear-form collapse", start, checks)


def test_criterion_10_thread_determinism(tmp_path):
    start = time.perf_counter()
    code, out, err = run_cli("gen", "matrix", "--n", "8", "--seed", "77")
    assert code == 0, err
    path = tmp_path / "m.json"
    path.write_text(out)
    code1, out1, _ = run_cli("approx", "--threads", "1", str(path))
    code8, out8, _ = run_cli("approx", "--threads", "8", str(path))
    assert code1 == code8 == 0
    assert out1 == out8
    _report(10, "thread-count determinism", start, 1)
