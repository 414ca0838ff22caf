import numpy as np
import pytest

from permtaylor import (
    DominanceForm,
    InadmissibleInputError,
    SingularScalingError,
    check_dominance_matrix,
    check_dominance_tensor,
    identity_tensor,
    normalize_strongly_dominant,
    permanent_ryser,
    permanent_tensor,
    strip_diagonal,
)
from permtaylor.generators import (
    block_extremal_matrix,
    random_admissible_matrix,
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
    prob = normalize_strongly_dominant(np.diag(diag), 0.5)
    assert np.count_nonzero(prob.a) == 0
    assert prob.log_prefactor == pytest.approx(np.sum(np.log(diag)))
    assert np.exp(prob.log_prefactor) == pytest.approx(np.prod(diag))


def test_normalize_scaled_shift():
    rng = np.random.default_rng(21)
    a0 = random_admissible_matrix(5, 0.6, rng, zero_diag=True)
    b = 2.0 * (np.eye(5) + a0)
    prob = normalize_strongly_dominant(b, 0.7)
    assert np.allclose(prob.a, a0, atol=1e-14)
    assert prob.log_prefactor == pytest.approx(5 * np.log(2))


def test_normalize_preserves_permanent():
    rng = np.random.default_rng(22)
    for _ in range(6):
        b = random_dominant_matrix(6, 0.6, rng)
        prob = normalize_strongly_dominant(b, 0.6)
        assert prob.report.admissible
        assert prob.report.effective_lambda <= 0.6 + 1e-12
        lhs = np.exp(prob.log_prefactor) * permanent_ryser(np.eye(6) + prob.a)
        rhs = permanent_ryser(b)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_normalize_rejects_zero_diagonal():
    b = np.array([[0, 0.1], [0.1, 1]], dtype=complex)
    with pytest.raises(SingularScalingError):
        normalize_strongly_dominant(b, 0.5)


def test_normalize_rejects_violated_dominance():
    b = np.array([[1.0, 0.9], [0.0, 1.0]])
    with pytest.raises(InadmissibleInputError):
        normalize_strongly_dominant(b, 0.5)


def test_strip_zero_diagonal_is_identity():
    rng = np.random.default_rng(23)
    a = random_admissible_matrix(4, 0.5, rng, zero_diag=True)
    prob = strip_diagonal(a)
    assert prob.log_prefactor == 0
    assert np.array_equal(prob.a, a)


def test_strip_diagonal_only_matrix():
    d = np.array([0.2, -0.3j, 0.1 + 0.1j])
    prob = strip_diagonal(np.diag(d))
    assert np.count_nonzero(prob.a) == 0
    assert prob.log_prefactor == pytest.approx(np.sum(np.log(1 + d)))


def test_strip_preserves_permanent_matrix():
    rng = np.random.default_rng(24)
    for n in (4, 6, 7):
        a = random_admissible_matrix(n, 0.7, rng)
        prob = strip_diagonal(a)
        lhs = np.exp(prob.log_prefactor) * permanent_ryser(np.eye(n) + prob.a)
        rhs = permanent_ryser(np.eye(n) + a)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_strip_preserves_permanent_tensor():
    rng = np.random.default_rng(25)
    for n in (3, 4):
        t = random_admissible_tensor(3, n, 0.7, rng)
        prob = strip_diagonal(t)
        eye = identity_tensor(3, n)
        lhs = np.exp(prob.log_prefactor) * permanent_tensor(eye + prob.a)
        rhs = permanent_tensor(eye + t)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
        diag_idx = tuple(np.arange(n) for _ in range(3))
        assert np.count_nonzero(prob.a[diag_idx]) == 0


def test_strip_output_stays_admissible():
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = random_admissible_matrix(5, 0.95, rng)
        prob = strip_diagonal(a)
        assert prob.report.admissible
        assert prob.report.effective_lambda < 1.0


def test_strip_rejects_inadmissible():
    with pytest.raises(InadmissibleInputError):
        strip_diagonal(np.full((3, 3), 0.5 + 0j))


def test_report_json_schema():
    doc = check_dominance_matrix(np.zeros((2, 2))).to_json()
    assert set(doc) == {"row_sums", "effective_lambda", "admissible", "form"}
    assert doc["admissible"] is True


def test_zero_diagonal_generators_need_two_rows():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n >= 2"):
        random_admissible_matrix(1, 0.5, rng, zero_diag=True)
    with pytest.raises(ValueError, match="n >= 2"):
        random_admissible_tensor(3, 1, 0.5, rng, zero_diag=True)
