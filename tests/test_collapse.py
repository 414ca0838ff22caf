import numpy as np
import pytest

from permtaylor import collapse, permanent_ryser
from permtaylor.generators import random_admissible_tensor


def _rand_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _check_postconditions(alphas, zs, out):
    form_before = np.sum(alphas * zs)
    form_after = np.sum(alphas * out)
    assert abs(form_after - form_before) <= 1e-12 * (1 + abs(form_before))
    assert np.abs(out).sum() <= np.abs(zs).sum() + 1e-12
    assert np.count_nonzero(out) <= 1


def test_single_nonzero_unchanged():
    alphas = np.array([1 + 1j, 2.0, -0.5])
    zs = np.array([0, 0.7 - 0.2j, 0])
    out = collapse(alphas, zs)
    assert np.array_equal(out, zs)


def test_cancellation_pair():
    c = 0.6 - 0.3j
    out = collapse(np.array([1.0, 1.0]), np.array([c, -c]))
    assert np.array_equal(out, np.zeros(2))


def test_zero_alpha_coordinates_are_cleared():
    alphas = np.array([0.0, 2.0, 0.0])
    zs = np.array([1 + 1j, 0.5, -3.0])
    out = collapse(alphas, zs)
    assert out[0] == 0 and out[2] == 0
    assert out[1] == 0.5


def test_random_instances():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        alphas = _rand_complex(rng, n)
        zs = _rand_complex(rng, n)
        _check_postconditions(alphas, zs, collapse(alphas, zs))


def test_idempotence():
    rng = np.random.default_rng(62)
    alphas = _rand_complex(rng, 8)
    zs = _rand_complex(rng, 8)
    once = collapse(alphas, zs)
    twice = collapse(alphas, once)
    assert np.array_equal(once, twice)


def test_equal_alpha_tie_keeps_lower_index():
    out = collapse(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    assert out[0] != 0 and out[1] == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        collapse(np.ones(3), np.ones(2))


def test_cofactor_collapse_preserves_permanent():
    # replace row 0 of A by its collapse against the minors of I + A:
    # per(I + A) = per (I+A)_00 + sum_j a_0j per (I+A)_0j stays fixed
    rng = np.random.default_rng(63)
    n = 5
    a = random_admissible_tensor(2, n, 0.6, rng, zero_diag=True)
    full = np.eye(n) + a
    alphas = np.zeros(n, dtype=complex)
    for j in range(1, n):
        minor = np.delete(np.delete(full, 0, axis=0), j, axis=1)
        alphas[j] = permanent_ryser(minor)
    b_row = collapse(alphas, a[0])
    b = a.copy()
    b[0] = b_row
    before = permanent_ryser(np.eye(n) + a)
    after = permanent_ryser(np.eye(n) + b)
    assert abs(after - before) <= 1e-9 * (1 + abs(before))
    assert np.count_nonzero(b[0]) <= 1
    assert np.abs(b[0]).sum() <= np.abs(a[0]).sum() + 1e-12
