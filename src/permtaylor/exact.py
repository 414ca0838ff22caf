"""Exact permanents of complex matrices and cubical tensors.

per A = sum over permutations sigma of prod_i a[i, sigma(i)]. The tensor
permanent generalizes this to a sum over (d-1)-tuples of permutations:

    PER A = sum_{s2, ..., sd} prod_i a[i, s2(i), ..., sd(i)]

Both are exponential-cost oracles and are guarded by explicit caps that
fail fast instead of hanging. Three routes are provided for cross-checks,
each with one entry point and one cap: Ryser inclusion-exclusion
(matrices), full permutation enumeration and the cofactor-style slice
expansion (matrices and tensors). All summation orders are fixed and
compensated, so repeated runs are bit-identical.

The permanent of the empty (0x0 or 0x...x0) array is 1 by convention.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Sequence

import numpy as np

from .core import SizeCapError, _is_int, as_matrix, as_tensor, diagonal_index
from .summation import ComplexNeumaier

# n^2 2^n Ryser steps at n = 30, so the default step_cap admits n <= 30
RYSER_STEP_CAP = 30**2 << 30
TENSOR_PRODUCT_CAP = 10**8
BRANCH_STEPS = 64
BRANCH_HALVINGS = 30


def check_subset(subset: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate a strictly increasing index subset of range(n)."""
    s = tuple(int(i) for i in subset)
    for prev, cur in zip(s, s[1:]):
        if cur <= prev:
            raise ValueError(f"subset must be strictly increasing, got {s}")
    if s and (s[0] < 0 or s[-1] >= n):
        raise ValueError(f"subset indices must lie in [0, {n})")
    return s


def _ryser_core(rows: list[list[complex]]) -> complex:
    """(-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} a_ij.

    Subsets are visited in Gray-code order; each step flips one column in
    the running row sums, and the row-sum update is fused with the product.
    """
    n = len(rows)
    if n == 0:
        return complex(1.0)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    rs = [complex(0.0)] * n
    acc = ComplexNeumaier()
    gray = 0
    parity = 1.0  # (-1)^|S|, flips on every Gray step
    rng = range(n)
    for s in range(1, 1 << n):
        j = (s & -s).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        col = cols[j]
        p = complex(1.0)
        if gray & bit:
            for i in rng:
                v = rs[i] + col[i]
                rs[i] = v
                p *= v
        else:
            for i in rng:
                v = rs[i] - col[i]
                rs[i] = v
                p *= v
        parity = -parity
        acc.add(parity * p)
    total = acc.value()
    return -total if n % 2 else total


def _tensor_core(nested, n: int, d: int) -> complex:
    """Sum over (d-1)-tuples of permutations in lexicographic order."""
    if n == 0:
        return complex(1.0)
    acc = ComplexNeumaier()
    perms = itertools.permutations(range(n))
    # a matrix streams its n! permutations instead of holding them
    tuples = zip(perms) if d == 2 else itertools.product(list(perms), repeat=d - 1)
    for sigmas in tuples:
        p = complex(1.0)
        for i in range(n):
            v = nested[i]
            for sig in sigmas:
                v = v[sig[i]]
            p *= v
        acc.add(p)
    return acc.value()


def permanent_ryser(a, step_cap: int = RYSER_STEP_CAP) -> complex:
    """Permanent by Ryser inclusion-exclusion, for n^2 2^n <= step_cap: each
    of the 2^n steps of its Gray-code walk updates n row sums and multiplies them."""
    arr = as_matrix(a)
    steps = arr.shape[0] ** 2 << arr.shape[0]
    if steps > step_cap:
        raise SizeCapError(f"Ryser permanent needs n^2 2^n = {steps} steps, cap is {step_cap}")
    return _ryser_core(arr.tolist())


def permanent_tensor(t, product_cap: int = TENSOR_PRODUCT_CAP) -> complex:
    """Permanent of a matrix or tensor by enumeration of permutation tuples.

    Requires (n!)^(d-1) <= product_cap; a matrix (d = 2) streams its n!
    permutations.
    """
    arr = as_tensor(t)
    d, n = arr.ndim, arr.shape[0]
    if math.factorial(n) ** (d - 1) > product_cap:
        raise SizeCapError(
            f"tensor permanent needs (n!)^(d-1) = {math.factorial(n) ** (d - 1)} products, "
            f"cap is {product_cap}"
        )
    return _tensor_core(arr.tolist(), n, d)


def permanent_tensor_slice_expansion(
    t, axis: int, coord: int, product_cap: int = TENSOR_PRODUCT_CAP
) -> complex:
    """Tensor permanent by cofactor expansion along one slice.

    Expands along the slice of entries whose `axis` index equals `coord`:
    each entry is multiplied by the permanent of the subtensor left after
    crossing out the d slices through it, and the recursion bottoms out at
    the empty tensor with value 1. Sub-permanents are cached on the
    surviving index sets, which collapses the recursion tree.
    """
    arr = as_tensor(t)
    d, n = arr.ndim, arr.shape[0]
    if n == 0:
        return complex(1.0)
    if not 0 <= axis < d:
        raise ValueError(f"axis must lie in [0, {d})")
    if not 0 <= coord < n:
        raise ValueError(f"coord must lie in [0, {n})")
    if math.factorial(n) ** (d - 1) > product_cap:
        raise SizeCapError(
            f"slice expansion needs up to (n!)^(d-1) = {math.factorial(n) ** (d - 1)} "
            f"products, cap is {product_cap}"
        )
    nested = arr.tolist()

    def entry(idx: tuple[int, ...]) -> complex:
        v = nested
        for i in idx:
            v = v[i]
        return v

    cache: dict[tuple, complex] = {}

    def expand(axes_idx: tuple[tuple[int, ...], ...], ax: int, co: int) -> complex:
        acc = ComplexNeumaier()
        ranges = [axes_idx[k] if k != ax else (co,) for k in range(d)]
        for idx in itertools.product(*ranges):
            a_val = entry(idx)
            if a_val == 0:
                continue
            sub_axes = tuple(
                tuple(x for x in axes_idx[k] if x != idx[k]) for k in range(d)
            )
            if not sub_axes[0]:
                sub = complex(1.0)
            else:
                sub = cache.get(sub_axes)
                if sub is None:
                    sub = expand(sub_axes, 0, sub_axes[0][0])
                    cache[sub_axes] = sub
            acc.add(a_val * sub)
        return acc.value()

    full = tuple(tuple(range(n)) for _ in range(d))
    return expand(full, axis, coord)


def exact_log_permanent(
    a, steps: int = BRANCH_STEPS, product_cap: int = TENSOR_PRODUCT_CAP
) -> complex:
    """Branch-tracked exact log-permanent, the test-side reference value.

    Walks z through `steps` (an int >= 1) uniform increments on [0, 1],
    evaluating the exact permanent of I + z A at each node and
    accumulating the principal-branch log of consecutive ratios. This
    follows the continuous branch anchored at ln per(I) = 0, which a
    single principal-branch log of the endpoint may miss by multiples of
    2 pi i.

    A step whose ratio turns by more than pi/2 could hide a full turn, so
    it is halved, up to BRANCH_HALVINGS times, until every piece turns by
    at most pi/2; past that ArithmeticError is raised rather than risking
    a silent wrap.
    """
    if not _is_int(steps) or steps < 1:
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
    arr = as_tensor(a)
    d, n = arr.ndim, arr.shape[0]
    diag = diagonal_index(d, n)

    def value_at(z: float) -> complex:
        scaled = z * arr
        scaled[diag] += 1.0
        return permanent_ryser(scaled) if d == 2 else permanent_tensor(scaled, product_cap)

    def log_step(z0: float, v0: complex, z1: float, v1: complex, halvings: int) -> complex:
        if v1 == 0:
            raise ArithmeticError(f"permanent vanishes at z = {z1}")
        step = cmath.log(v1 / v0)
        if abs(step.imag) <= math.pi / 2:
            return step
        if halvings == BRANCH_HALVINGS:
            raise ArithmeticError(f"phase turns by more than pi/2 within [{z0}, {z1}]")
        zm = (z0 + z1) / 2
        vm = value_at(zm)
        return log_step(z0, v0, zm, vm, halvings + 1) + log_step(zm, vm, z1, v1, halvings + 1)

    total = complex(0.0)
    prev = complex(1.0)
    for t in range(1, steps + 1):
        cur = value_at(t / steps)
        total += log_step((t - 1) / steps, prev, t / steps, cur, 0)
        prev = cur
    return total


def principal_subtensor(t, subset: Sequence[int]) -> np.ndarray:
    """Subarray of a matrix or tensor with every axis restricted to `subset`."""
    arr = as_tensor(t)
    s = check_subset(subset, arr.shape[0])
    idx = np.asarray(s, dtype=np.intp)
    return arr[np.ix_(*(idx for _ in range(arr.ndim)))]
