"""Taylor approximation of the log-permanent on a dominance-certified disk.

For a matrix A with row sums sum_j |a_ij| <= lam < 1, the polynomial
g(z) = per(I + z A) has no zeros in |z| < 1/lam, so f(z) = ln g(z) admits
a continuous branch with f(0) = 0, and the order-m Taylor polynomial of f
at 0 approximates f(1) = ln per(I + A) with certified tail

    |f(1) - T_m(1)| <= n lam^(m+1) / ((m+1)(1 - lam)).

The derivatives of g at 0 are principal-minor sums,

    g^(k)(0) = k! sum_{|I| = k} per A_I,

computed by Ryser's inclusion-exclusion truncated at order k (see
_minor_sums); the log-derivatives f^(k)(0) follow by forward substitution
through the triangular convolution that links a function with its
logarithm. The identical scheme covers cubical tensors:
PER(I + z A) also has degree at most n in z, so the same tail bound is
used with the axis-0 slice sums supplying lam.

Cost is quasi-polynomial in n (the order m grows like ln n - ln epsilon),
which is kept honest by explicit work caps instead of silent truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ApproxConfig,
    InadmissibleInputError,
    NormalizationError,
    SizeCapError,
    as_tensor,
    pair,
)
from .dominance import check_dominance_tensor
from .summation import ComplexNeumaier

WORK_CAP = 10**9
# entries in the engine's largest per-block temporary
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TaylorResult:
    """Derivative data and the evaluated Taylor approximation at z = 1.

    g_derivs[k] and f_derivs[k] are the k-th derivatives at 0 of
    g(z) = per(I + z A) and f = ln g; value is T_m(1) = sum f_k / k!,
    and error_bound certifies |ln per(I + A) - value| on the branch
    continued from f(0) = 0.
    """

    g_derivs: tuple[complex, ...]
    f_derivs: tuple[complex, ...]
    order_m: int
    value: complex
    error_bound: float

    def to_json(self) -> dict:
        return {
            "m": self.order_m,
            "value": pair(self.value),
            "error_bound": self.error_bound,
            "g_derivs": [pair(z) for z in self.g_derivs],
            "f_derivs": [pair(z) for z in self.f_derivs],
        }


@dataclass(frozen=True)
class ZeroScanReport:
    """Modulus of the permanent polynomial over a polar grid."""

    radius: float
    radial: int
    angular: int
    min_modulus: float
    argmin_z: complex
    moduli: np.ndarray

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "radial": self.radial,
            "angular": self.angular,
            "min_modulus": self.min_modulus,
            "argmin_z": pair(self.argmin_z),
            "moduli": [[float(v) for v in row] for row in self.moduli],
        }


def taylor_tail_bound(n: int, lam: float, m: int) -> float:
    """Certified bound on |f(1) - T_m(1)| for a degree-n zero-free g."""
    return n * lam ** (m + 1) / ((m + 1) * (1.0 - lam))


def choose_order(n: int, lam: float, epsilon: float) -> int:
    """Minimal Taylor order m whose tail bound is at most epsilon.

    Scans m = 0, 1, 2, ...; the bound tends to 0 for lam < 1, so the scan
    terminates, and m stays small (tens) at any desk scale.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    m = 0
    while taylor_tail_bound(n, lam, m) > epsilon:
        m += 1
    return m


def minor_sum_work(n: int, d: int, m: int) -> int:
    """Work of the minor-sum engine for orders 0..m on a d-dimensional array.

    2^(d-1) partial slice sums of the n^d array, then for each of the
    C(n, u) (2^(d-1) - 1)^u tuples with |U| = u <= m: (u + 1)^(d-1) gathered
    entries for each row of U and, below order m, for each of the n rows,
    plus an O(n (m - u)) elementary symmetric recurrence.
    """
    p = (1 << (d - 1)) - 1
    total = (p + 1) * n**d
    for u in range(m + 1):
        per_tuple = u * (u + 1) ** (d - 1)
        if u < m:
            per_tuple += n * ((u + 1) ** (d - 1) + m - u)
        total += math.comb(n, u) * p**u * per_tuple
    return total


def _tuple_blocks(n: int, p: int, u: int):
    """(rows, vals) blocks whose products cover every (U, pattern) tuple with |U| = u.

    rows (K x u) holds K co-subsets U in lexicographic order, vals (P x u)
    P patterns in base-p order: vals[j, q] is the non-empty bitmask (1..p)
    of the permutation axes that rows[k, q] is removed from. Block sizes
    keep the engine's temporaries below BLOCK_ENTRIES and depend on
    (n, p, u) alone.
    """
    width = max(1, u) ** p.bit_length()
    npat = p**u
    npb = min(npat, max(1, BLOCK_ENTRIES // width))
    per = max(1, BLOCK_ENTRIES // (n * max(width, npb)))
    weights = p ** np.arange(u - 1, -1, -1)
    combos = itertools.combinations(range(n), u)
    ncomb = math.comb(n, u)
    for first in range(0, ncomb, per):
        take = min(per, ncomb - first)
        rows = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, take)),
            dtype=np.intp,
            count=take * u,
        ).reshape(take, u)
        for start in range(0, npat, npb):
            q = np.arange(start, min(npat, start + npb))
            yield rows, q[:, None] // weights % p + 1


def _slice_sums(partials, rows: np.ndarray, vals: np.ndarray, at=None) -> np.ndarray:
    """r[j, k, w] = sum of a[i, j_0, ..., j_{d-2}] over j_t in S_t, for row i = at[k, w].

    S_t drops the rows of co-subset rows[k] whose pattern vals[j] has bit t
    set; without `at`, r covers every row i = w. Writing [j_t in S_t] as
    1 - [j_t in T_t] makes r an alternating sum over axis sets B of the
    partial sums at removed indices; a 0/1 matrix of pattern hits weighs
    them for all patterns in one product. For d = 2, r is the row sums
    minus the |U| removed columns.
    """
    (nk, u), npat = rows.shape, len(vals)
    full = partials[0][1]
    tail, pad, width = (slice(None), (), len(full)) if at is None else (at, (1,), at.shape[1])
    r = np.empty((npat, nk, width), dtype=np.complex128)
    r[...] = full[tail]
    index = np.ascontiguousarray(rows.T)
    for axes, part in partials[1:] if u else ():
        b = len(axes)
        shape = [(1,) * i + (u,) + (1,) * (b - 1 - i) for i in range(b)]
        gathered = part[tuple(index.reshape(s + (nk,) + pad) for s in shape) + (tail,)]
        hits = np.ones((npat,) + (1,) * b)
        for s, t in zip(shape, axes):
            hits = hits * ((vals >> t) & 1).reshape((npat,) + s)
        term = hits.reshape(npat, -1) @ gathered.view(np.float64).reshape(u**b, -1)
        term = term.view(np.complex128).reshape(r.shape)
        r += -term if b % 2 else term
    return r


def _minor_sums(arr: np.ndarray, m: int, work_cap: int) -> list[complex]:
    """c_k = sum over k-subsets I of PER A_I, for k = 0..m and any d >= 2.

    Ryser's inclusion-exclusion on each of the d - 1 permutation axes
    writes PER(I + zA) as a signed sum over column-subset tuples
    (S_0, ..., S_{d-2}) of prod_i ([i in every S_t] + z r_i), with the
    masked slice sums r_i of _slice_sums. With T_t the complement of S_t and
    U = union of the T_t, every row of U contributes a factor z, so only
    tuples with |U| = u <= m reach the coefficients k <= m:

        c_k = sum (-1)^(sum_t |T_t|) prod_{i in U} r_i e_{k-u}(r_i : i not in U),

    where e_j is the elementary symmetric polynomial. For d = 2 this is
    Ryser's formula truncated at order m. The lead product needs r only at
    the rows of U, and order m needs nothing else, so its tuples, the most
    numerous, cost O(u (u + 1)^(d-1)) whatever n is. Tuples are processed in
    blocks whose layout depends on (n, d, u) alone, and the block partials
    are folded in block order, so repeated calls give bit-identical results.
    """
    d, n = arr.ndim, arr.shape[0]
    work = minor_sum_work(n, d, m)
    if work > work_cap:
        raise SizeCapError(f"minor-sum engine needs ~{work} ops, cap is {work_cap}")
    p = (1 << (d - 1)) - 1
    # (B, a summed over the permutation axes outside B, row axis last)
    partials = []
    for b in range(p + 1):
        axes = tuple(t for t in range(d - 1) if b >> t & 1)
        part = arr.sum(axis=tuple(1 + t for t in range(d - 1) if t not in axes))
        partials.append((axes, np.ascontiguousarray(np.moveaxis(part, 0, -1))))
    sums = np.zeros(m + 1, dtype=np.complex128)
    for u in range(m + 1):
        for rows, vals in _tuple_blocks(n, p, u):
            removed = sum(((vals >> t) & 1).sum(axis=1) for t in range(d - 1))
            sign = np.where(removed % 2, -1.0, 1.0)[:, None]
            lead = (_slice_sums(partials, rows, vals, rows).prod(axis=2) * sign).ravel()
            e = np.zeros((m - u + 1, len(lead)), dtype=np.complex128)
            e[0] = 1.0
            if u < m:
                r = _slice_sums(partials, rows, vals).reshape(-1)
                r[np.arange(0, len(r), n).reshape(len(vals), len(rows), 1) + rows] = 0.0
                for ri in r.reshape(-1, n).T.copy():
                    e[1:] += ri * e[:-1]
            sums[u:] += (e * lead).sum(axis=1)
    return [complex(c) for c in sums]


def perm_poly_derivs(a, m: int, threads: int = 1, work_cap: int = WORK_CAP) -> list[complex]:
    """Derivatives g^(k)(0) of g(z) = per(I + z A) for k = 0..m.

    Each is k! times the sum of permanents of the k x k principal
    subarrays; A may be a matrix or a cubical tensor (PER of principal
    subtensors). `threads` is accepted for compatibility and has no
    effect: the engine's block layout fixes every result.
    """
    arr = as_tensor(a)
    n = arr.shape[0]
    if m > n:
        raise ValueError(f"order {m} exceeds the polynomial degree {n}")
    sums = _minor_sums(arr, m, work_cap)
    return [math.factorial(k) * sums[k] for k in range(m + 1)]


perm_poly_derivs_tensor = perm_poly_derivs


def log_derivatives(g_derivs) -> list[complex]:
    """Derivatives f^(k)(0) of f = ln g from the derivatives of g.

    Solves the triangular system
        sum_{j=0}^{k-1} C(k-1, j) f^(k-j)(0) g^(j)(0) = g^(k)(0)
    by forward substitution, with exact integer binomial coefficients.
    Requires g_derivs[0] == 1 (so that f(0) = 0).
    """
    g = [complex(v) for v in g_derivs]
    if not g or g[0] != 1:
        raise NormalizationError("g_derivs[0] must equal 1")
    m = len(g) - 1
    f = [complex(0.0)] * (m + 1)
    for k in range(1, m + 1):
        s = g[k]
        for j in range(1, k):
            s -= math.comb(k - 1, j) * f[k - j] * g[j]
        f[k] = s
    return f


def approx_log_permanent(
    a, cfg: ApproxConfig, threads: int = 1, work_cap: int = WORK_CAP
) -> TaylorResult:
    """Approximate ln per(I + A), or ln PER(I + A) for a tensor.

    The returned value approximates the branch continued from
    ln per(I) = 0 along z in [0, 1]. The measured effective lambda must
    not exceed cfg.lam; when it is smaller it replaces cfg.lam in both
    the order selection and the certified bound (tighter at no cost).
    `threads` has no effect; it is kept for the determinism contract.
    """
    arr = as_tensor(a)
    report = check_dominance_tensor(arr)
    if not report.admissible:
        raise InadmissibleInputError(
            f"input is not admissible (effective lambda {report.effective_lambda:.6g} >= 1)"
        )
    if report.effective_lambda > cfg.lam:
        raise InadmissibleInputError(
            f"measured effective lambda {report.effective_lambda:.6g} exceeds "
            f"configured bound {cfg.lam:.6g}"
        )
    lam = report.effective_lambda
    n = arr.shape[0]
    if cfg.order_override is not None:
        m = cfg.order_override
    else:
        m = choose_order(n, lam, cfg.epsilon)
    # g has degree at most n: derivatives beyond n vanish identically
    m_g = min(m, n)
    g = perm_poly_derivs(arr, m_g, work_cap=work_cap) + [complex(0.0)] * (m - m_g)
    f = log_derivatives(g)
    acc = ComplexNeumaier()
    for k in range(m + 1):
        acc.add(f[k] / math.factorial(k))
    return TaylorResult(
        g_derivs=tuple(g),
        f_derivs=tuple(f),
        order_m=m,
        value=acc.value(),
        error_bound=taylor_tail_bound(n, lam, m),
    )


def zero_scan(
    a,
    radius: float | None = None,
    radial: int = 64,
    angular: int = 64,
    threads: int = 1,
    work_cap: int = WORK_CAP,
) -> ZeroScanReport:
    """Scan |per(I + z A)| over a polar grid of the disk |z| <= radius.

    The polynomial coefficients are the exact principal-minor sums, so each
    grid value is an exact evaluation up to rounding. Default radius is
    0.99 / effective_lambda, just inside the disk that admissibility
    certifies to be zero-free. `threads` has no effect.
    """
    arr = as_tensor(a)
    report = check_dominance_tensor(arr)
    sums = _minor_sums(arr, arr.shape[0], work_cap)
    if radial < 1 or angular < 1:
        raise ValueError("grid resolution must be positive")
    if radius is None:
        lam = report.effective_lambda
        radius = 0.99 / lam if lam > 0 else 1.0
    radii = np.linspace(0.0, radius, radial)
    thetas = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    val = np.full_like(z, sums[-1])
    for c in reversed(sums[:-1]):
        val = val * z + c
    moduli = np.abs(val)
    flat = int(np.argmin(moduli))
    ri, ti = divmod(flat, angular)
    return ZeroScanReport(
        radius=float(radius),
        radial=radial,
        angular=angular,
        min_modulus=float(moduli[ri, ti]),
        argmin_z=complex(z[ri, ti]),
        moduli=moduli,
    )
