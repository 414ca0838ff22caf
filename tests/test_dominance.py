import math

import numpy as np
import pytest

from permtaylor import (
    DominanceForm,
    SingularScalingError,
    check_dominance_matrix,
    check_dominance_tensor,
    diagonal_normal_form,
    identity_tensor,
    permanent_ryser,
    permanent_tensor,
    scaled_lambda,
)
from permtaylor.generators import (
    block_extremal_matrix,
    random_admissible_tensor,
    random_dominant_matrix,
)


def test_zero_matrix_report():
    r = check_dominance_matrix(np.zeros((4, 4)))
    assert r.row_sums == (0.0, 0.0, 0.0, 0.0)
    assert r.effective_lambda == 0.0
    assert r.admissible
    assert r.form is DominanceForm.ZERO_DIAGONAL_A


def test_heavy_row_is_inadmissible():
    m = np.zeros((4, 4), dtype=complex)
    m[0] = 0.3
    r = check_dominance_matrix(m)
    assert r.row_sums[0] == pytest.approx(1.2)
    assert not r.admissible


def test_block_family_lambda():
    lam = 0.45
    r = check_dominance_matrix(block_extremal_matrix(10, lam))
    assert r.effective_lambda == pytest.approx(lam)
    assert r.admissible


def test_form_detects_nonzero_diagonal():
    m = np.zeros((3, 3), dtype=complex)
    m[1, 1] = 0.2
    assert check_dominance_matrix(m).form is DominanceForm.SHIFTED_I_PLUS_A


def test_tensor_reports():
    assert check_dominance_tensor(np.zeros((2, 2, 2))).admissible
    t = np.zeros((3, 3, 3), dtype=complex)
    t[0, 2, 1] = 0.9
    r = check_dominance_tensor(t)
    assert r.row_sums == (0.9, 0.0, 0.0)
    assert r.effective_lambda == pytest.approx(0.9)


def test_normalize_diagonal_matrix():
    diag = np.array([2.0, -1.5 + 0.5j, 0.25j])
    prob = diagonal_normal_form(np.diag(diag))
    assert np.count_nonzero(prob.a) == 0
    assert prob.log_prefactor == pytest.approx(np.sum(np.log(diag)))
    assert np.exp(prob.log_prefactor) == pytest.approx(np.prod(diag))


def test_normalize_scaled_shift():
    rng = np.random.default_rng(21)
    a0 = random_admissible_tensor(2, 5, 0.6, rng, zero_diag=True)
    b = 2.0 * (np.eye(5) + a0)
    prob = diagonal_normal_form(b)
    assert np.allclose(prob.a, a0, atol=1e-14)
    assert prob.log_prefactor == pytest.approx(5 * np.log(2))


def test_normalize_preserves_permanent():
    rng = np.random.default_rng(22)
    for _ in range(6):
        b = random_dominant_matrix(6, 0.6, rng)
        prob = diagonal_normal_form(b)
        assert prob.report.admissible
        assert prob.report.effective_lambda <= 0.6 + 1e-12
        lhs = np.exp(prob.log_prefactor) * permanent_ryser(np.eye(6) + prob.a)
        rhs = permanent_ryser(b)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_normalize_preserves_tensor_permanent():
    rng = np.random.default_rng(27)
    for n in (3, 4):
        b = rng.normal(size=(n,) * 3) + 1j * rng.normal(size=(n,) * 3)
        b[(np.arange(n),) * 3] += 3.0  # keep the diagonal away from zero
        prob = diagonal_normal_form(b)
        lhs = np.exp(prob.log_prefactor) * permanent_tensor(identity_tensor(3, n) + prob.a)
        rhs = permanent_tensor(b)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_normalize_rejects_zero_diagonal():
    b = np.array([[0, 0.1], [0.1, 1]], dtype=complex)
    with pytest.raises(SingularScalingError):
        diagonal_normal_form(b)


def test_normalize_reports_violated_dominance():
    # lam = 0.5 is violated: row 0 has off-diagonal mass 0.9 > 0.5 |b_00|
    b = np.array([[1.0, 0.9], [0.0, 1.0]])
    report = diagonal_normal_form(b).report
    assert report.row_sums == pytest.approx((0.9, 0.0))
    assert report.effective_lambda > 0.5
    assert report.admissible
    assert report.form is DominanceForm.GENERAL_B


def test_strip_zero_diagonal_is_identity():
    rng = np.random.default_rng(23)
    a = random_admissible_tensor(2, 4, 0.5, rng, zero_diag=True)
    prob = diagonal_normal_form(np.eye(4) + a)
    assert prob.log_prefactor == 0
    assert np.array_equal(prob.a, a)


def test_strip_diagonal_only_matrix():
    d = np.array([0.2, -0.3j, 0.1 + 0.1j])
    prob = diagonal_normal_form(np.eye(3) + np.diag(d))
    assert np.count_nonzero(prob.a) == 0
    assert prob.log_prefactor == pytest.approx(np.sum(np.log(1 + d)))


def test_strip_preserves_permanent_matrix():
    rng = np.random.default_rng(24)
    for n in (4, 6, 7):
        a = random_admissible_tensor(2, n, 0.7, rng)
        prob = diagonal_normal_form(np.eye(n) + a)
        lhs = np.exp(prob.log_prefactor) * permanent_ryser(np.eye(n) + prob.a)
        rhs = permanent_ryser(np.eye(n) + a)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_strip_preserves_permanent_tensor():
    rng = np.random.default_rng(25)
    for n in (3, 4):
        t = random_admissible_tensor(3, n, 0.7, rng)
        eye = identity_tensor(3, n)
        prob = diagonal_normal_form(eye + t)
        lhs = np.exp(prob.log_prefactor) * permanent_tensor(eye + prob.a)
        rhs = permanent_tensor(eye + t)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
        diag_idx = tuple(np.arange(n) for _ in range(3))
        assert np.count_nonzero(prob.a[diag_idx]) == 0


def test_strip_output_stays_admissible():
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = random_admissible_tensor(2, 5, 0.95, rng)
        prob = diagonal_normal_form(np.eye(5) + a)
        assert prob.report.admissible
        assert prob.report.effective_lambda < 1.0


def test_strip_minus_identity_is_singular():
    a = -np.eye(3)
    with pytest.raises(SingularScalingError):
        diagonal_normal_form(np.eye(3) + a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 0, 0)])
def test_empty_array_reports_admissible(shape):
    empty = np.zeros(shape, dtype=complex)
    check = check_dominance_matrix if len(shape) == 2 else check_dominance_tensor
    r = check(empty)
    assert r.row_sums == ()
    assert r.effective_lambda == 0.0
    assert r.admissible
    prob = diagonal_normal_form(empty)
    assert prob.a.shape == shape
    assert prob.log_prefactor == 0
    assert prob.report.row_sums == ()
    assert prob.report.admissible


def test_report_json_schema():
    doc = check_dominance_matrix(np.zeros((2, 2))).to_json()
    assert set(doc) == {"row_sums", "effective_lambda", "admissible", "form"}
    assert doc["admissible"] is True


def test_zero_diagonal_generators_need_two_rows():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n >= 2"):
        random_admissible_tensor(2, 1, 0.5, rng, zero_diag=True)
    with pytest.raises(ValueError, match="n >= 2"):
        random_admissible_tensor(3, 1, 0.5, rng, zero_diag=True)


def test_report_carries_a_nan_mass_into_lambda():
    # |b_11| overflows to inf, so slice 1's relative mass is (inf - inf) / inf
    report = diagonal_normal_form(np.array([[1, 0], [0, 1.5e308 + 1.5e308j]])).report
    assert report.row_sums[0] == 0.0 and math.isnan(report.row_sums[1])
    assert math.isnan(report.effective_lambda)
    assert not report.admissible


def _rescaled(a, y):
    """Entry (i, j_1, ..., j_{d-1}) times prod_t y[j_t] / y[i]^(d-1)."""
    d, n = a.ndim, a.shape[0]
    out = a / y.reshape((n,) + (1,) * (d - 1)) ** (d - 1)
    for t in range(1, d):
        out = out * y.reshape((1,) * t + (n,) + (1,) * (d - 1 - t))
    return out


@pytest.mark.parametrize("d, sizes, oracle", [
    (2, range(1, 9), permanent_ryser),
    (3, range(1, 6), permanent_tensor),
])
def test_scaled_lambda_keeps_the_permanent_and_certifies_the_rescaled_masses(d, sizes, oracle):
    rng = np.random.default_rng(60 + d)
    for n in sizes:
        a = random_admissible_tensor(d, n, 0.7, rng)
        lam, y = scaled_lambda(a)
        shift = identity_tensor(d, n)
        scaled = _rescaled(a, y)
        assert np.allclose(oracle(shift + scaled), oracle(shift + a), rtol=1e-12, atol=0)
        raw = check_dominance_tensor(a).effective_lambda
        assert check_dominance_tensor(scaled).effective_lambda <= lam <= raw
        if n > 1:
            assert lam < raw  # a dense array gains from the scaling


@pytest.mark.parametrize("d, n", [(2, 10), (3, 5)])
def test_splitting_off_the_diagonal_never_raises_the_certified_lambda(d, n):
    # a slice of the normal form A' of I + A has mass R_i / |1 + a_i...i|
    # under any rescaling y, at most R_i + |a_i...i| while that is below 1
    rng = np.random.default_rng(63 + d)
    for lam in (0.3, 0.6, 0.9):
        a = random_admissible_tensor(d, n, lam, rng)
        split = diagonal_normal_form(identity_tensor(d, n) + a).a
        lam_a, y = scaled_lambda(a)
        assert check_dominance_tensor(_rescaled(split, y)).effective_lambda <= lam_a
        assert scaled_lambda(split)[0] < lam_a


def test_scaled_lambda_of_a_matrix_is_its_perron_root():
    rng = np.random.default_rng(62)
    a = random_admissible_tensor(2, 12, 0.5, rng)
    rho = max(abs(np.linalg.eigvals(np.abs(a))))
    lam, _ = scaled_lambda(a)
    assert rho <= lam <= rho * (1 + 1e-3)


@pytest.mark.parametrize("a", [
    np.zeros((3, 3)),
    block_extremal_matrix(6, 0.4),
    np.diag([0.2, 0.0, 0.3]),
    np.zeros((0, 0)),
], ids=["zero", "block", "zero-rows", "empty"])
def test_scaled_lambda_falls_back_to_the_raw_masses(a):
    lam, y = scaled_lambda(a)
    assert lam == check_dominance_tensor(a).effective_lambda
    assert (y == 1).all() and y.shape == (a.shape[0],)
