"""Order selection, derivative computation, and the certified bound.

Independent oracles used here:
  * Chebyshev-node interpolation of z -> per(I + zA) for the derivative
    coefficients (the polynomial has degree n, so n+1 nodes determine it);
  * analytic derivatives of ln(1 + cz) and of logs of products for the
    triangular log-derivative solve;
  * the closed form per(I + A) = (1 +/- lam^2)^(n/2) for the block family;
  * branch-tracked exact log-permanents for the end-to-end bound.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

import permtaylor.taylor as taylor
from permtaylor import (
    ApproxConfig,
    InadmissibleInputError,
    NormalizationError,
    approx_log_permanent,
    check_dominance_tensor,
    choose_order,
    diagonal_normal_form,
    exact_log_permanent,
    exact_tail_bound,
    identity_tensor,
    json_dumps,
    log_derivatives,
    perm_poly_derivs,
    perm_poly_derivs_tensor,
    permanent_ryser,
    permanent_tensor,
    scaled_lambda,
    taylor_tail_bound,
    zero_scan,
)
from permtaylor.components import charge
from permtaylor.generators import (
    block_extremal_matrix,
    random_admissible_tensor,
    random_hermitian_admissible,
)


def _cheb_nodes(count):
    return (np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count)) + 1) / 2


def _interp_derivs(values_at, n):
    """k! * coefficients of the degree-n interpolant through n+1 nodes."""
    nodes = _cheb_nodes(n + 1)
    vals = np.array([values_at(z) for z in nodes])
    vander = np.vander(nodes.astype(complex), n + 1, increasing=True)
    coef = np.linalg.solve(vander, vals)
    return [math.factorial(k) * coef[k] for k in range(n + 1)]


# -- order selection ---------------------------------------------------------

def test_choose_order_reference_values():
    assert choose_order(10, 0.5, 0.01) == 7
    assert choose_order(1, 0.5, 0.9) == 1


def test_choose_order_zero_when_bound_already_met():
    # n lam / (1 - lam) <= epsilon at m = 0
    assert choose_order(1, 0.1, 0.5) == 0
    assert choose_order(3, 0.05, 0.2) == 0


def test_choose_order_is_minimal():
    for n, lam, eps in [(10, 0.5, 0.01), (4, 0.3, 0.05), (50, 0.7, 0.001)]:
        m = choose_order(n, lam, eps)
        assert taylor_tail_bound(n, lam, m) <= eps
        if m > 0:
            assert taylor_tail_bound(n, lam, m - 1) > eps


def test_choose_order_bisects_orders_near_one(monkeypatch):
    calls = []

    def counted(n, lam, m):
        calls.append(m)
        return taylor_tail_bound(n, lam, m)

    monkeypatch.setattr(taylor, "taylor_tail_bound", counted)
    assert choose_order(6, 0.9999999, 0.01) == 48234416
    assert len(calls) < 100


def test_choose_order_equals_linear_scan():
    for n, lam, eps in itertools.product([1, 3, 20], [0.0, 0.1, 0.5, 0.9, 0.99], [0.5, 1e-3, 1e-9]):
        m = 0
        while taylor_tail_bound(n, lam, m) > eps:
            m += 1
        assert choose_order(n, lam, eps) == m, (n, lam, eps)


@pytest.mark.parametrize("epsilon", [0.0, -0.5, math.nan])
def test_choose_order_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        choose_order(5, 0.5, epsilon)


def test_tail_bound_strictly_decreasing():
    prev = math.inf
    for m in range(30):
        cur = taylor_tail_bound(12, 0.6, m)
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("n, lam, m, rtol", [
    (16, 0.36, 5, 1e-12), (18, 0.4, 6, 1e-12), (6, 0.05, 0, 1e-12), (100, 0.9, 40, 1e-12),
    # at 0.99 the sum stops after TAIL_TERMS terms, and the bound
    # 0.99^k / (k (1 - 0.99)) on the rest leaves the tail 0.2% above exact
    (3, 0.99, 2, 1e-2),
])
def test_exact_tail_bound_holds_and_is_tight(n, lam, m, rtol):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(lam)  # the double itself, exactly
        exact = n * mpmath.nsum(lambda k: x**k / k, [m + 1, mpmath.inf])
        got = exact_tail_bound(n, lam, m)
        assert exact <= got <= exact * (1 + rtol)
    assert got <= taylor_tail_bound(n, lam, m)
    assert exact_tail_bound(n, 0.0, m) == 0.0


def test_exact_tail_bound_strictly_decreasing():
    tails = [exact_tail_bound(12, 0.6, m) for m in range(30)]
    assert all(b < a for a, b in zip(tails, tails[1:]))


# -- derivatives of per(I + zA) ----------------------------------------------

def test_poly_derivs_order_zero_and_one():
    rng = np.random.default_rng(31)
    m = random_admissible_tensor(2, 5, 0.5, rng)
    g = perm_poly_derivs(m, 1)
    assert g[0] == 1
    assert g[1] == pytest.approx(np.trace(m))
    z = random_admissible_tensor(2, 5, 0.5, rng, zero_diag=True)
    assert perm_poly_derivs(z, 1)[1] == 0


def test_poly_derivs_match_interpolation():
    rng = np.random.default_rng(32)
    n = 6
    m = random_admissible_tensor(2, n, 0.6, rng)
    got = perm_poly_derivs(m, n)
    want = _interp_derivs(lambda z: permanent_ryser(np.eye(n) + z * m), n)
    for k in range(n + 1):
        assert abs(got[k] - want[k]) <= 1e-8 * (1 + abs(want[k]))


def test_poly_derivs_tensor_match_interpolation():
    rng = np.random.default_rng(33)
    n = 4
    t = random_admissible_tensor(3, n, 0.6, rng)
    eye = identity_tensor(3, n)
    got = perm_poly_derivs_tensor(t, n)
    want = _interp_derivs(lambda z: permanent_tensor(eye + z * t), n)
    for k in range(n + 1):
        assert abs(got[k] - want[k]) <= 1e-8 * (1 + abs(want[k]))


def test_poly_derivs_tensor_basics():
    t = np.zeros((3, 3, 3), dtype=complex)
    t[0, 1, 2] = 0.4
    g = perm_poly_derivs_tensor(t, 1)
    assert g[0] == 1 and g[1] == 0  # zero diagonal


def test_poly_derivs_rejects_order_beyond_degree():
    with pytest.raises(ValueError):
        perm_poly_derivs(np.zeros((3, 3)), 4)


@pytest.mark.parametrize("m", [-1, True, 2.5])
def test_poly_derivs_rejects_orders_that_are_not_ints_in_range(monkeypatch, m):
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(taylor, "component_sums", engine)
    with pytest.raises(ValueError, match="order m"):
        perm_poly_derivs(np.zeros((3, 3)), m)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: perm_poly_derivs(a, 0),
        lambda a: approx_log_permanent(a, ApproxConfig(lam=0.5, epsilon=0.01)),
        lambda a: zero_scan(a, radius=1.0),
        lambda a: zero_scan(a),
    ],
    ids=["perm_poly_derivs", "approx_log_permanent", "zero_scan radius", "zero_scan"],
)
def test_taylor_path_rejects_the_empty_array_before_any_work(monkeypatch, call):
    def work(*args):
        raise AssertionError("work ran")

    for name in ("_components", "component_sums", "check_dominance_tensor", "require_admissible"):
        monkeypatch.setattr(taylor, name, work)
    with pytest.raises(ValueError, match=r"empty array of shape \(0, 0\)"):
        call(np.zeros((0, 0)))
    assert exact_log_permanent(np.zeros((0, 0))) == 0


def test_poly_derivs_threads_bit_identical():
    rng = np.random.default_rng(34)
    m = random_admissible_tensor(2, 8, 0.5, rng)
    assert perm_poly_derivs(m, 6, threads=1) == perm_poly_derivs(m, 6, threads=4)


# -- log-derivative solve ----------------------------------------------------

def test_log_derivatives_single_factor():
    c = 0.3 - 0.2j
    f = log_derivatives([1, c, 0, 0])
    assert f[0] == 0
    assert f[1] == pytest.approx(c)
    assert f[2] == pytest.approx(-(c**2))
    assert f[3] == pytest.approx(2 * c**3)


def test_log_derivatives_product_power_sums():
    # ln prod (1 + c_i z) has f_k = (-1)^(k-1) (k-1)! sum c_i^k
    cs = np.array([0.2 + 0.1j, -0.3j, 0.15 - 0.25j])
    e1 = cs.sum()
    e2 = cs[0] * cs[1] + cs[0] * cs[2] + cs[1] * cs[2]
    e3 = cs.prod()
    g = [1, e1, 2 * e2, 6 * e3, 0, 0, 0]
    f = log_derivatives(g)
    for k in range(1, 7):
        want = (-1) ** (k - 1) * math.factorial(k - 1) * np.sum(cs**k)
        assert abs(f[k] - want) <= 1e-12 * (1 + abs(want))


def test_log_derivatives_constant_g():
    assert log_derivatives([1, 0, 0, 0, 0]) == [0, 0, 0, 0, 0]


def test_log_derivatives_requires_normalized_g():
    with pytest.raises(NormalizationError):
        log_derivatives([2, 1])
    with pytest.raises(NormalizationError):
        log_derivatives([])


def test_forward_recursion_inverts_log_derivatives():
    rng = np.random.default_rng(35)
    m = random_admissible_tensor(2, 6, 0.5, rng)
    g = perm_poly_derivs(m, 6)
    f = log_derivatives(g)
    for k in range(1, 7):
        back = sum(math.comb(k - 1, j) * f[k - j] * g[j] for j in range(k))
        assert abs(back - g[k]) <= 1e-10 * (1 + abs(g[k]))


# -- end-to-end approximation ------------------------------------------------

def test_approx_zero_matrix():
    res = approx_log_permanent(np.zeros((6, 6)), ApproxConfig(0.5, 0.01))
    assert res.value == 0
    assert res.order_m == 0
    assert res.error_bound == 0


def test_approx_block_family_both_signs():
    cfg = ApproxConfig(0.5, 0.01)
    for sign in (1, -1):
        a = block_extremal_matrix(10, 0.5, sign)
        res = approx_log_permanent(a, cfg)
        exact = 5 * math.log(1 + sign * 0.25)
        assert abs(res.value - exact) <= res.error_bound
        assert res.error_bound <= 0.01


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP I: the log solve on the multiplied component polynomials "
    "cancels away the value of large sign -1 blocks",
)
def test_approx_block_family_minus_sign_large_n_within_bound():
    # per(I + A) = (1 - lam^2)^(n/2); all three cases miss the bound until ROADMAP I
    misses = []
    for n, lam in [(30, 0.95), (60, 0.9), (60, 0.96)]:
        res = approx_log_permanent(block_extremal_matrix(n, lam, -1), ApproxConfig(lam, 0.01))
        exact = n / 2 * math.log(1 - lam * lam)
        if not (cmath.isfinite(res.value) and abs(res.value - exact) <= res.error_bound):
            misses.append((n, lam, res.value, res.error_bound))
    assert not misses, misses


def test_approx_within_bound_random():
    rng = np.random.default_rng(36)
    cfg = ApproxConfig(0.5, 0.01)
    for _ in range(5):
        m = random_admissible_tensor(2, 10, 0.5, rng)
        res = approx_log_permanent(m, cfg)
        ref = exact_log_permanent(m)
        assert abs(res.value - ref) <= res.error_bound
        assert res.error_bound <= 0.01


def test_approx_tensor_within_bound():
    rng = np.random.default_rng(37)
    cfg = ApproxConfig(0.5, 0.05)
    t = random_admissible_tensor(3, 4, 0.5, rng)
    res = approx_log_permanent(t, cfg)
    ref = exact_log_permanent(t)
    assert abs(res.value - ref) <= res.error_bound <= 0.05


def test_approx_d4_tensor_within_bound():
    rng = np.random.default_rng(45)
    t = random_admissible_tensor(4, 3, 0.5, rng)
    res = approx_log_permanent(t, ApproxConfig(0.5, 0.05))
    ref = exact_log_permanent(t)
    assert abs(res.value - ref) <= res.error_bound


def _within_bound(res, exact):
    """|value - ln exact| <= error_bound on some branch, checked without one:
    |exp(value) / exact - 1| <= expm1(error_bound)."""
    return abs(cmath.exp(res.value) / exact - 1) <= math.expm1(res.error_bound) + 1e-12


def _saving(sizes, d, m):
    """The engine work that order m - 1 saves against order m, as the gate counts it."""
    return charge(sizes, d, m) - charge(sizes, d, m - 1)


def test_approx_scales_lambda_and_drops_the_order_above_the_gate():
    # on a dense n = 16 matrix, order 5 saves 185,144 engine steps against 6
    a = random_admissible_tensor(2, 16, 0.4, np.random.default_rng(1))
    assert _saving([16], 2, 6) >= taylor.BLOCK_ENTRIES
    raw = check_dominance_tensor(a).effective_lambda
    assert choose_order(16, raw, 0.01) == 6
    res = approx_log_permanent(a, ApproxConfig(None, 0.01))
    assert (res.order_m, res.raw_lam) == (5, raw)
    normal = diagonal_normal_form(np.eye(16) + a)
    assert res.lam == scaled_lambda(normal.a)[0] < scaled_lambda(a)[0] < raw
    assert res.error_bound == exact_tail_bound(16, res.lam, 5) <= 0.01
    assert exact_tail_bound(16, res.lam, 4) > 0.01
    assert _within_bound(res, permanent_ryser(np.eye(16) + a))
    # g is PER(I + zA') of the normal form, and value adds its prefactor
    split = approx_log_permanent(normal.a, ApproxConfig(None, 0.01, order_override=5))
    assert (res.g_derivs, res.f_derivs) == (split.g_derivs, split.f_derivs)
    assert abs(res.value - (normal.log_prefactor + split.value)) <= 1e-14


def test_approx_split_keeps_the_branch_of_a_winding_diagonal():
    # the 16 factors 1 + 0.4 e^{i phi}, cos phi = -0.4, wind 6.59 > 2 pi
    # around 0; raw lambda 0.5 asks for m = 12, and the split for far less
    rng = np.random.default_rng(72)
    a = random_admissible_tensor(2, 16, 0.1, rng, zero_diag=True)
    a += 0.4 * cmath.exp(1j * math.acos(-0.4)) * np.eye(16)
    res = approx_log_permanent(a, ApproxConfig(None, 0.01))
    raw_m = choose_order(16, res.raw_lam, 0.01)
    assert _saving([16], 2, raw_m) >= taylor.BLOCK_ENTRIES
    assert res.order_m < 6 < raw_m < 16
    assert _within_bound(res, permanent_ryser(np.eye(16) + a))
    unsplit = approx_log_permanent(a, ApproxConfig(None, 0.01, order_override=raw_m))
    assert abs(res.value - unsplit.value) <= res.error_bound + unsplit.error_bound
    assert res.value.imag > 2 * math.pi


def test_approx_above_the_gate_keeps_the_raw_bytes_when_the_order_stays():
    # n = 100 at lambda 0.1 runs at m = 3, whose step down is above the gate,
    # but no lambda of the split brings the exact tail at m = 2 within 0.01
    a = random_admissible_tensor(2, 100, 0.1, np.random.default_rng(11))
    raw = check_dominance_tensor(a).effective_lambda
    assert _saving([100], 2, 3) >= taylor.BLOCK_ENTRIES
    res = approx_log_permanent(a, ApproxConfig(None, 0.01))
    forced = approx_log_permanent(a, ApproxConfig(None, 0.01, order_override=3))
    assert (res.order_m, res.lam, res.raw_lam) == (3, raw, raw)
    assert res.to_json() == forced.to_json()
    assert res.error_bound == taylor_tail_bound(100, raw, 3)


def test_approx_tensor_above_the_gate_within_bound():
    t = random_admissible_tensor(3, 6, 0.45, np.random.default_rng(70))
    raw = check_dominance_tensor(t).effective_lambda
    assert _saving([6], 3, choose_order(6, raw, 0.01)) >= taylor.BLOCK_ENTRIES
    res = approx_log_permanent(t, ApproxConfig(None, 0.01))
    assert res.lam < raw and res.error_bound == exact_tail_bound(6, res.lam, res.order_m)
    assert _within_bound(res, permanent_tensor(identity_tensor(3, 6) + t))


@pytest.mark.parametrize("d, n, lam", [(2, 10, 0.45), (2, 16, 0.2), (3, 4, 0.45), (2, 16, 0.4)])
def test_approx_below_the_gate_keeps_the_raw_order_and_bound(d, n, lam):
    # (2, 16, 0.4) runs at m = 6, whose saving is above the gate, but a
    # forced order is never refined
    a = random_admissible_tensor(d, n, lam, np.random.default_rng(71))
    raw = check_dominance_tensor(a).effective_lambda
    m = choose_order(n, raw, 0.01)
    forced = lam == 0.4
    cfg = ApproxConfig(None, 0.01, order_override=m if forced else None)
    assert forced or _saving([n], d, m) < taylor.BLOCK_ENTRIES
    res = approx_log_permanent(a, cfg)
    assert (res.order_m, res.lam, res.raw_lam) == (m, raw, raw)
    assert res.error_bound == taylor_tail_bound(n, raw, m)


def test_approx_uses_measured_lambda_when_smaller():
    rng = np.random.default_rng(38)
    m = random_admissible_tensor(2, 6, 0.3, rng)
    res = approx_log_permanent(m, ApproxConfig(0.9, 0.01))
    lam_eff = max(np.abs(m).sum(axis=1))
    assert res.error_bound == taylor_tail_bound(6, lam_eff, res.order_m)
    assert res.error_bound <= 0.01


def test_approx_measures_lambda_when_config_lam_is_none():
    rng = np.random.default_rng(40)
    m = random_admissible_tensor(2, 6, 0.6, rng)
    lam_eff = max(np.abs(m).sum(axis=1))
    measured = approx_log_permanent(m, ApproxConfig(None, 0.01))
    assert measured == approx_log_permanent(m, ApproxConfig(lam_eff, 0.01))
    with pytest.raises(InadmissibleInputError, match="not admissible"):
        approx_log_permanent(np.full((4, 4), 0.3 + 0j), ApproxConfig(None, 0.01))


def test_approx_rejects_lambda_above_configured():
    rng = np.random.default_rng(39)
    m = random_admissible_tensor(2, 6, 0.8, rng)
    with pytest.raises(InadmissibleInputError):
        approx_log_permanent(m, ApproxConfig(0.3, 0.01))


def test_approx_rejects_inadmissible():
    with pytest.raises(InadmissibleInputError):
        approx_log_permanent(np.full((4, 4), 0.3 + 0j), ApproxConfig(0.5, 0.01))


def test_approx_order_override():
    rng = np.random.default_rng(40)
    m = random_admissible_tensor(2, 6, 0.5, rng)
    res = approx_log_permanent(m, ApproxConfig(0.5, 0.01, order_override=3))
    assert res.order_m == 3
    assert len(res.g_derivs) == 4


def test_approx_order_beyond_degree_pads_zeros():
    rng = np.random.default_rng(41)
    m = random_admissible_tensor(2, 3, 0.5, rng)
    res = approx_log_permanent(m, ApproxConfig(0.5, 0.01, order_override=6))
    assert res.g_derivs[4:] == (0, 0, 0)
    ref = exact_log_permanent(m)
    assert abs(res.value - ref) <= res.error_bound


def test_approx_hermitian_imaginary_part_small():
    rng = np.random.default_rng(42)
    for _ in range(5):
        h = random_hermitian_admissible(6, 0.6, rng)
        res = approx_log_permanent(h, ApproxConfig(0.6, 0.01))
        # per(I + A) is real positive for Hermitian admissible A
        assert abs(res.value.imag) <= res.error_bound


def test_approx_threads_bit_identical():
    rng = np.random.default_rng(43)
    m = random_admissible_tensor(2, 8, 0.5, rng)
    cfg = ApproxConfig(0.5, 0.01)
    r1 = approx_log_permanent(m, cfg, threads=1)
    r4 = approx_log_permanent(m, cfg, threads=4)
    assert r1.value == r4.value
    assert r1.g_derivs == r4.g_derivs
    assert r1.f_derivs == r4.f_derivs


def test_result_json_schema():
    res = approx_log_permanent(np.zeros((2, 2)), ApproxConfig(0.5, 0.01))
    doc = res.to_json()
    assert list(doc) == ["m", "value", "error_bound", "g_derivs", "f_derivs"]


# -- branch tracking ---------------------------------------------------------

def test_exact_log_matches_principal_log_when_positive():
    a = block_extremal_matrix(10, 0.5, 1)
    assert exact_log_permanent(a) == pytest.approx(5 * math.log(1.25))


def test_exact_log_follows_continuous_branch():
    # a diagonal family whose endpoint argument sum exceeds pi: the naive
    # principal log of the endpoint differs from the tracked branch
    d = np.full(6, 0.9j)
    a = np.diag(d)
    tracked = exact_log_permanent(a)
    want = np.sum(np.log(1 + d))
    assert tracked == pytest.approx(want)
    endpoint = complex(permanent_ryser(np.eye(6) + a))
    assert abs(np.log(endpoint) - tracked) > 1.0  # principal value winds off


def test_exact_log_halves_steps_that_turn_too_far():
    # one step from z = 0 to 1 turns the phase by 6 atan(0.9) > pi; the
    # guard halves it instead of taking the wrapped principal log
    d = np.full(6, 0.9j)
    tracked = exact_log_permanent(np.diag(d), steps=1)
    assert tracked == pytest.approx(np.sum(np.log(1 + d)))


@pytest.mark.parametrize("steps", [0, -3, 2.5, True])
def test_exact_log_rejects_steps_that_are_not_positive_ints(steps):
    with pytest.raises(ValueError, match="steps must be an int >= 1"):
        exact_log_permanent(np.diag([0.5, 0.25]), steps=steps)


def test_exact_log_raises_when_halving_cannot_resolve_the_phase():
    # (1 - z + 1e-15 i z)^2 turns by pi within 1e-15 of z = 1
    with pytest.raises(ArithmeticError):
        exact_log_permanent(np.diag([-1 + 1e-15j, -1 + 1e-15j]))


# -- zero scanning -----------------------------------------------------------

def test_zero_scan_zero_matrix():
    rep = zero_scan(np.zeros((3, 3)), radius=2.0, radial=16, angular=16)
    assert rep.min_modulus == pytest.approx(1.0)


def test_zero_scan_finds_planted_zero():
    rep = zero_scan(np.array([[-1.0]]), radius=1.0)
    assert rep.min_modulus == pytest.approx(0.0, abs=1e-14)
    assert rep.argmin_z == pytest.approx(1.0)


def test_zero_scan_checks_the_grid_before_the_minor_sums():
    a = random_admissible_tensor(2, 6, 0.5, np.random.default_rng(45))
    with pytest.raises(ValueError):
        zero_scan(a, radial=0, work_cap=1)
    for radius in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            zero_scan(a, radius=radius, work_cap=1)


def test_zero_scan_admissible_is_zero_free():
    rng = np.random.default_rng(44)
    m = random_admissible_tensor(2, 6, 0.5, rng)
    rep = zero_scan(m)
    assert rep.min_modulus > 0
    assert rep.moduli.shape == (64, 64)
    lam = max(np.abs(m).sum(axis=1))
    assert rep.radius == pytest.approx(0.99 / lam)
    per_item = {**rep.to_json(), "moduli": [[float(v) for v in row] for row in rep.moduli]}
    assert json_dumps(rep.to_json()) == json_dumps(per_item)
