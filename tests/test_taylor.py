"""Order selection, derivative computation, and the certified bound.

Independent oracles used here:
  * Chebyshev-node interpolation of z -> per(I + zA) for the derivative
    coefficients (the polynomial has degree n, so n+1 nodes determine it);
  * analytic derivatives of ln(1 + cz) and of logs of products for the
    triangular log-derivative solve;
  * the closed form per(I + A) = (1 +/- lam^2)^(n/2) for the block family;
  * branch-tracked exact log-permanents for the end-to-end bound.
"""

import math

import numpy as np
import pytest

from permtaylor import (
    ApproxConfig,
    InadmissibleInputError,
    NormalizationError,
    approx_log_permanent,
    choose_order,
    exact_log_permanent,
    identity_tensor,
    log_derivatives,
    perm_poly_derivs,
    perm_poly_derivs_tensor,
    permanent_ryser,
    permanent_tensor,
    taylor_tail_bound,
    zero_scan,
)
from permtaylor.generators import (
    block_extremal_matrix,
    random_admissible_matrix,
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


def test_tail_bound_strictly_decreasing():
    prev = math.inf
    for m in range(30):
        cur = taylor_tail_bound(12, 0.6, m)
        assert cur < prev
        prev = cur


# -- derivatives of per(I + zA) ----------------------------------------------

def test_poly_derivs_order_zero_and_one():
    rng = np.random.default_rng(31)
    m = random_admissible_matrix(5, 0.5, rng)
    g = perm_poly_derivs(m, 1)
    assert g[0] == 1
    assert g[1] == pytest.approx(np.trace(m))
    z = random_admissible_matrix(5, 0.5, rng, zero_diag=True)
    assert perm_poly_derivs(z, 1)[1] == 0


def test_poly_derivs_match_interpolation():
    rng = np.random.default_rng(32)
    n = 6
    m = random_admissible_matrix(n, 0.6, rng)
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


def test_poly_derivs_threads_bit_identical():
    rng = np.random.default_rng(34)
    m = random_admissible_matrix(8, 0.5, rng)
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
    m = random_admissible_matrix(6, 0.5, rng)
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


def test_approx_within_bound_random():
    rng = np.random.default_rng(36)
    cfg = ApproxConfig(0.5, 0.01)
    for _ in range(5):
        m = random_admissible_matrix(10, 0.5, rng)
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


def test_approx_uses_measured_lambda_when_smaller():
    rng = np.random.default_rng(38)
    m = random_admissible_matrix(6, 0.3, rng)
    res = approx_log_permanent(m, ApproxConfig(0.9, 0.01))
    lam_eff = max(np.abs(m).sum(axis=1))
    assert res.error_bound == taylor_tail_bound(6, lam_eff, res.order_m)
    assert res.error_bound <= 0.01


def test_approx_rejects_lambda_above_configured():
    rng = np.random.default_rng(39)
    m = random_admissible_matrix(6, 0.8, rng)
    with pytest.raises(InadmissibleInputError):
        approx_log_permanent(m, ApproxConfig(0.3, 0.01))


def test_approx_rejects_inadmissible():
    with pytest.raises(InadmissibleInputError):
        approx_log_permanent(np.full((4, 4), 0.3 + 0j), ApproxConfig(0.5, 0.01))


def test_approx_order_override():
    rng = np.random.default_rng(40)
    m = random_admissible_matrix(6, 0.5, rng)
    res = approx_log_permanent(m, ApproxConfig(0.5, 0.01, order_override=3))
    assert res.order_m == 3
    assert len(res.g_derivs) == 4


def test_approx_order_beyond_degree_pads_zeros():
    rng = np.random.default_rng(41)
    m = random_admissible_matrix(3, 0.5, rng)
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
    m = random_admissible_matrix(8, 0.5, rng)
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
    a = random_admissible_matrix(6, 0.5, np.random.default_rng(45))
    with pytest.raises(ValueError):
        zero_scan(a, radial=0, work_cap=1)
    for radius in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            zero_scan(a, radius=radius, work_cap=1)


def test_zero_scan_admissible_is_zero_free():
    rng = np.random.default_rng(44)
    m = random_admissible_matrix(6, 0.5, rng)
    rep = zero_scan(m)
    assert rep.min_modulus > 0
    assert rep.moduli.shape == (64, 64)
    lam = max(np.abs(m).sum(axis=1))
    assert rep.radius == pytest.approx(0.99 / lam)
