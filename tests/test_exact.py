"""Cross-checks between the exact permanent engines.

Ryser's inclusion-exclusion, the permutation-tuple enumeration
(permanent_tensor, matrices included) and the slice expansion must agree
on their overlapping domains; Ryser and the enumeration share no code.
The known closed forms (identity, all-ones, 2x2 blocks) pin absolute
values.
"""

import numpy as np
import pytest

from permtaylor import (
    SizeCapError,
    exact,
    exact_log_permanent,
    identity_tensor,
    permanent_ryser,
    permanent_tensor,
    permanent_tensor_slice_expansion,
    principal_subtensor,
)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_two_by_two_closed_form():
    a, b = 0.3 - 0.7j, -1.1 + 0.2j
    m = np.array([[1, a], [b, 1]])
    want = 1 + a * b
    assert permanent_tensor(m) == pytest.approx(want)
    assert permanent_ryser(m) == pytest.approx(want)


def test_identity_permanent_is_one():
    assert permanent_tensor(identity_tensor(2, 3)) == 1
    assert permanent_ryser(identity_tensor(2, 5)) == 1


def test_all_ones():
    assert permanent_tensor(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent_tensor(np.ones((3, 3, 3))) == pytest.approx(36.0)


def test_tensor_d2_matches_ryser():
    # the enumeration and Ryser's inclusion-exclusion share no code
    rng = np.random.default_rng(102)
    for n in range(9):
        m = _rand_complex(rng, (n, n))
        r = permanent_ryser(m)
        assert abs(permanent_tensor(m) - r) <= 1e-10 * abs(r)


def test_identity_tensor_permanent_is_one():
    for d, n in [(2, 4), (3, 3), (4, 2)]:
        assert permanent_tensor(identity_tensor(d, n)) == 1


def test_slice_expansion_identity_tensor():
    t = identity_tensor(3, 2)
    for axis in range(3):
        for coord in range(2):
            assert permanent_tensor_slice_expansion(t, axis, coord) == 1


def test_slice_expansion_row_of_2x2():
    a, b = 0.5 + 0.1j, -0.3j
    m = np.array([[1, a], [b, 1]])
    assert permanent_tensor_slice_expansion(m, 0, 0) == pytest.approx(1 + a * b)


def test_slice_expansion_matches_tensor_permanent():
    rng = np.random.default_rng(103)
    for n in (2, 3, 4):
        t = _rand_complex(rng, (n, n, n))
        want = permanent_tensor(t)
        for axis in range(3):
            for coord in range(n):
                got = permanent_tensor_slice_expansion(t, axis, coord)
                assert abs(got - want) <= 1e-10 * abs(want)


def test_slice_expansion_d4():
    rng = np.random.default_rng(107)
    t = _rand_complex(rng, (3, 3, 3, 3))
    want = permanent_tensor(t)
    for axis in range(4):
        for coord in range(3):
            got = permanent_tensor_slice_expansion(t, axis, coord)
            assert abs(got - want) <= 1e-10 * abs(want)


def test_row_multilinearity():
    # per is linear in each row: splitting row i = u + v splits the permanent
    rng = np.random.default_rng(104)
    for n in (3, 5, 6):
        m = _rand_complex(rng, (n, n))
        u = _rand_complex(rng, n)
        v = _rand_complex(rng, n)
        i = int(rng.integers(n))
        msum, mu, mv = m.copy(), m.copy(), m.copy()
        msum[i], mu[i], mv[i] = u + v, u, v
        whole = permanent_tensor(msum)
        parts = permanent_tensor(mu) + permanent_tensor(mv)
        assert abs(whole - parts) <= 1e-10 * (1 + abs(whole))


def test_block_diagonal_closed_form():
    # blocks [[0, a], [b, 0]] give per(I + A) = prod (1 + a_k b_k)
    rng = np.random.default_rng(105)
    n = 8
    m = np.eye(n, dtype=complex)
    want = complex(1.0)
    for k in range(n // 2):
        a = 0.5 * np.exp(2j * np.pi * rng.uniform())
        b = 0.5 * np.exp(2j * np.pi * rng.uniform())
        m[2 * k, 2 * k + 1] = a
        m[2 * k + 1, 2 * k] = b
        want *= 1 + a * b
    assert permanent_ryser(m) == pytest.approx(want, rel=1e-12)


def test_principal_submatrix():
    m = np.arange(9, dtype=float).reshape(3, 3) + 0j
    assert np.array_equal(principal_subtensor(m, (0, 1, 2)), m)
    corners = principal_subtensor(m, (0, 2))
    assert corners.tolist() == [[0, 2], [6, 8]]
    empty = principal_subtensor(m, ())
    assert empty.shape == (0, 0)
    assert permanent_tensor(empty) == 1
    assert permanent_ryser(empty) == 1


def test_principal_subtensor():
    t = identity_tensor(3, 4)
    sub = principal_subtensor(t, (1, 3))
    assert np.array_equal(sub, identity_tensor(3, 2))
    empty = principal_subtensor(t, ())
    assert empty.shape == (0, 0, 0)
    assert permanent_tensor(empty) == 1


def test_subset_validation():
    m = identity_tensor(2, 3)
    with pytest.raises(ValueError):
        principal_subtensor(m, (1, 1))
    with pytest.raises(ValueError):
        principal_subtensor(m, (2, 0))
    with pytest.raises(ValueError):
        principal_subtensor(m, (0, 3))


def test_size_caps():
    with pytest.raises(SizeCapError):
        permanent_ryser(identity_tensor(2, 31))
    with pytest.raises(SizeCapError, match="479001600 products"):
        permanent_tensor(identity_tensor(2, 12))
    with pytest.raises(SizeCapError):
        permanent_tensor(identity_tensor(3, 3), product_cap=10)
    with pytest.raises(SizeCapError):
        permanent_tensor_slice_expansion(identity_tensor(3, 3), 0, 0, product_cap=10)


def test_exact_log_permanent_caps_matrices_before_ryser_runs(monkeypatch):
    def ryser(rows):
        raise AssertionError(f"Ryser ran at n = {len(rows)}")

    monkeypatch.setattr(exact, "_ryser_core", ryser)
    with pytest.raises(SizeCapError, match=f"n <= {exact.RYSER_CAP}, got n = 40"):
        exact_log_permanent(np.zeros((40, 40)))
    with pytest.raises(AssertionError, match=f"n = {exact.RYSER_CAP}"):
        exact_log_permanent(np.zeros((exact.RYSER_CAP,) * 2))


def test_repeat_runs_are_bit_identical():
    rng = np.random.default_rng(106)
    m = _rand_complex(rng, (6, 6))
    assert permanent_ryser(m) == permanent_ryser(m)
    assert permanent_tensor(m) == permanent_tensor(m)
