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
from .dominance import check_dominance_tensor, require_admissible
from .summation import ComplexNeumaier

WORK_CAP = 10**9
# largest Taylor order: 171! and the f_derivs beyond it overflow a float
MAX_ORDER = 170
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

    2^(d-1) partial slice sums of the n^d array, then a charge for each of
    the C(n, u) (2^(d-1) - 1)^u tuples with |U| = u <= m. A matrix tuple
    takes its row sums from its parent's minus one column: n (m - u + 1)
    below order m, with the elementary symmetric recurrence, and 2u at
    order m, where only the rows of U are needed. A tensor tuple gathers
    (u + 1)^(d-1) entries for each row of U and, below order m, for each
    of the n rows, plus the O(n (m - u)) recurrence.
    """
    p = (1 << (d - 1)) - 1
    total = (p + 1) * n**d
    for u in range(m + 1):
        if d == 2:
            per_tuple = n * (m - u + 1) if u < m else 2 * u
        else:
            per_tuple = u * (u + 1) ** (d - 1)
            if u < m:
                per_tuple += n * ((u + 1) ** (d - 1) + m - u)
        total += math.comb(n, u) * p**u * per_tuple
    return total


def _block_sizes(n: int, p: int, u: int) -> tuple[int, int]:
    """Most co-subsets and most patterns in one block at co-subset size u.

    A matrix block carries K x n row sums. A tensor block meets P patterns
    and gathers u^(d-1) partial sums for each of its K n slice sums. The
    sizes keep those temporaries below BLOCK_ENTRIES and depend on
    (n, p, u) alone, which fixes the block layout.
    """
    if p == 1:
        return max(1, min(1024, BLOCK_ENTRIES // n)), 1
    width = max(1, u) ** p.bit_length()
    npb = min(p**u, max(1, BLOCK_ENTRIES // width))
    return max(1, BLOCK_ENTRIES // (n * max(width, npb))), npb


def _co_subset_blocks(n: int, m: int, caps):
    """Blocks of the co-subsets U of range(n) with |U| <= m, depth first.

    Yields (rows, parent): column k of rows (u x K) lists the k-th of
    K <= caps[u] co-subsets of size u in increasing order, and extends
    column parent[k] of the last block yielded at size u - 1 by rows[-1, k].
    Each block is followed by the blocks of its children U + {j}, j > max U,
    so every size comes in lexicographic order, and the layout depends on
    n and caps alone.
    """

    def children(rows):
        u, k = rows.shape
        start = rows[-1] + 1 if u else np.zeros(k, dtype=np.intp)
        count = n - start
        parent = np.repeat(np.arange(k), count)
        last = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count - start, count)
        cap = caps[u + 1]
        for s in range(0, len(parent), cap):
            par = parent[s : s + cap]
            block = np.concatenate((rows.take(par, axis=1), last[None, s : s + cap]))
            yield block, par
            if u + 1 < m:
                yield from children(block)

    root = np.zeros((0, 1), dtype=np.intp)
    yield root, None
    if m:
        yield from children(root)


def _pattern_blocks(p: int, u: int, step: int):
    """Blocks (at most step x u) of the p^u patterns of a co-subset, in base-p order.

    vals[j, q] is the non-empty bitmask (1..p) of the permutation axes that
    row q of U is removed from.
    """
    npat = p**u
    weights = p ** np.arange(u - 1, -1, -1)
    for start in range(0, npat, step):
        q = np.arange(start, min(npat, start + step))
        yield q[:, None] // weights % p + 1


def _hit_matrices(partials, vals: np.ndarray) -> list[np.ndarray]:
    """For each axis set B of partials[1:], the 0/1 matrix (P x u^|B|) whose
    entry [j, (q_1, ..., q_b)] is 1 when pattern vals[j] removes row q_t of
    U from axis B_t for every t."""
    npat = len(vals)
    # each set extends the set without its last axis, which comes earlier
    hits = {(): np.ones((npat, 1))}
    for axes, _ in partials[1:]:
        h = hits[axes[:-1]][:, :, None] * ((vals >> axes[-1]) & 1)[:, None, :]
        hits[axes] = h.reshape(npat, -1)
    return [hits[axes] for axes, _ in partials[1:]]


def _slice_sums(partials, hits, rows: np.ndarray, at=None) -> np.ndarray:
    """r[j, k, w] = sum of a[i, j_0, ..., j_{d-2}] over j_t in S_t, for row i = at[k, w].

    S_t drops the rows of co-subset rows[:, k] whose pattern j has bit t set;
    without `at`, r covers every row i = w. Writing [j_t in S_t] as
    1 - [j_t in T_t] makes r an alternating sum over axis sets B of the
    partial sums at removed indices; the hit matrices of _hit_matrices
    weigh them for all patterns in one product.
    """
    (u, nk), npat = rows.shape, len(hits[0])
    full = partials[0][1]
    tail, pad, width = (slice(None), (), len(full)) if at is None else (at, (1,), at.shape[1])
    r = np.empty((npat, nk, width), dtype=np.complex128)
    r[...] = full[tail]
    for (axes, part), h in zip(partials[1:], hits) if u else ():
        b = len(axes)
        shape = [(1,) * i + (u,) + (1,) * (b - 1 - i) for i in range(b)]
        gathered = part[tuple(rows.reshape(s + (nk,) + pad) for s in shape) + (tail,)]
        term = h @ gathered.view(np.float64).reshape(u**b, -1)
        term = term.view(np.complex128).reshape(r.shape)
        r += -term if b % 2 else term
    return r


def _matrix_terms(a: np.ndarray, m: int):
    """(u, lead, r) for each co-subset block of a matrix; see _minor_sums.

    A child's row sums are its parent's minus one column,
    r(U + {j}) = r(U) - a[:, j], so each block below order m costs one
    column gather per co-subset. The lead needs r only at the rows of U,
    2u gathered entries; it is formed the same way at every order, which
    keeps lower orders a bit-exact prefix of higher ones.
    """
    n = len(a)
    # row sums (n x K) of the last block yielded at each size below m
    carry = [a.sum(axis=1)[:, None]] + [None] * m
    for rows, parent in _co_subset_blocks(n, m, [_block_sizes(n, 1, 0)[0]] * (m + 1)):
        u, k = rows.shape
        if not u:
            yield 0, np.ones(1), carry[0]
            continue
        up, last = carry[u - 1], rows[-1]
        lead = (up.take(rows * up.shape[1] + parent) - a.take(rows * n + last)).prod(axis=0)
        r = None
        if u < m:
            carry[u] = up.take(parent, axis=1) - a.take(last, axis=1)
            r = carry[u].copy()
            r[rows, np.arange(k)] = 0.0
        yield u, -lead if u % 2 else lead, r


def _tensor_terms(arr: np.ndarray, m: int):
    """(u, lead, r) for each (co-subset block, pattern block) of a d >= 3 tensor.

    A removed index's slice depends on the sets removed on the other axes,
    so the slice sums come from the partial-sum expansion of _slice_sums
    rather than from the parent's.
    """
    d, n = arr.ndim, arr.shape[0]
    p = (1 << (d - 1)) - 1
    # (B, a summed over the permutation axes outside B, row axis last)
    partials = []
    for b in range(p + 1):
        axes = tuple(t for t in range(d - 1) if b >> t & 1)
        part = arr.sum(axis=tuple(1 + t for t in range(d - 1) if t not in axes))
        partials.append((axes, np.ascontiguousarray(np.moveaxis(part, 0, -1))))
    sizes = [_block_sizes(n, p, u) for u in range(m + 1)]
    for rows, _ in _co_subset_blocks(n, m, [cap for cap, _ in sizes]):
        (u, k), at = rows.shape, np.ascontiguousarray(rows.T)
        for vals in _pattern_blocks(p, u, sizes[u][1]):
            hits = _hit_matrices(partials, vals)
            removed = sum(((vals >> t) & 1).sum(axis=1) for t in range(d - 1))
            sign = np.where(removed % 2, -1.0, 1.0)[:, None]
            lead = (_slice_sums(partials, hits, rows, at).prod(axis=2) * sign).ravel()
            r = None
            if u < m:
                r = _slice_sums(partials, hits, rows).reshape(-1)
                r[np.arange(0, len(r), n).reshape(len(vals), k, 1) + at] = 0.0
                r = r.reshape(-1, n).T.copy()
            yield u, lead, r


def _minor_sums(arr: np.ndarray, m: int, work_cap: int) -> list[complex]:
    """c_k = sum over k-subsets I of PER A_I, for k = 0..m and any d >= 2.

    Ryser's inclusion-exclusion on each of the d - 1 permutation axes
    writes PER(I + zA) as a signed sum over column-subset tuples
    (S_0, ..., S_{d-2}) of prod_i ([i in every S_t] + z r_i), with the
    masked slice sums r_i. With T_t the complement of S_t and U = union of
    the T_t, every row of U contributes a factor z, so only tuples with
    |U| = u <= m reach the coefficients k <= m:

        c_k = sum (-1)^(sum_t |T_t|) prod_{i in U} r_i e_{k-u}(r_i : i not in U),

    where e_j is the elementary symmetric polynomial. For d = 2 this is
    Ryser's formula truncated at order m. The co-subsets U are walked as a
    prefix tree (_co_subset_blocks), and the step picked by d yields each
    block's signed lead products and, below order m, its slice sums
    (n x tuples) with the rows of U zeroed. Order m needs only the lead, so
    its tuples, the most numerous, cost O(u (u + 1)^(d-1)) whatever n is.
    The block layout depends on (n, d, u) alone, and the block partials are
    folded in walk order, so repeated calls give bit-identical results.
    """
    d, n = arr.ndim, arr.shape[0]
    work = minor_sum_work(n, d, m)
    if work > work_cap:
        raise SizeCapError(f"minor-sum engine needs ~{work} ops, cap is {work_cap}")
    terms = _matrix_terms(arr, m) if d == 2 else _tensor_terms(arr, m)
    sums = np.zeros(m + 1, dtype=np.complex128)
    for u, lead, r in terms:
        e = np.zeros((m - u + 1, len(lead)), dtype=np.complex128)
        e[0] = 1.0
        if u < m:
            for ri in r:
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
    An order above MAX_ORDER raises SizeCapError before any minor sum.
    `threads` has no effect; it is kept for the determinism contract.
    """
    arr = as_tensor(a)
    report = require_admissible(arr)
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
    if m > MAX_ORDER:
        raise SizeCapError(f"Taylor order m = {m} is above the limit of {MAX_ORDER}")
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
    if radial < 1 or angular < 1:
        raise ValueError("grid resolution must be positive")
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    arr = as_tensor(a)
    if radius is None:
        lam = check_dominance_tensor(arr).effective_lambda
        radius = 0.99 / lam if lam > 0 else 1.0
    sums = _minor_sums(arr, arr.shape[0], work_cap)
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
