"""Taylor approximation of the log-permanent on a dominance-certified disk.

For a matrix A with row sums sum_j |a_ij| <= lam < 1, the polynomial
g(z) = per(I + z A) has no zeros in |z| < 1/lam, so f(z) = ln g(z) admits
a continuous branch with f(0) = 0, and the order-m Taylor polynomial of f
at 0 approximates f(1) = ln per(I + A) with certified tail

    |f(1) - T_m(1)| <= n lam^(m+1) / ((m+1)(1 - lam)).

The derivatives of g at 0 are principal-minor sums,

    g^(k)(0) = k! sum_{|I| = k} per A_I,

computed by the minor-sum engine (engine.py), Ryser's inclusion-exclusion
truncated at order k, once for each strong component of the support
(components.py); the log-derivatives f^(k)(0) follow by forward
substitution through the triangular convolution that links a function
with its logarithm. The identical scheme covers cubical tensors:
PER(I + z A) also has degree at most n in z, so the same tail bound is
used with the axis-0 slice sums supplying lam.

Where a lower order saves real engine work, approx_log_permanent tightens
both. ln g(z) = sum over the n zeros z_i of g of ln(1 - z/z_i), so
|f^(k)(0)/k!| <= n lam^k / k and the exact majorant tail is

    |f(1) - T_m(1)| <= n sum_{k > m} lam^k / k     (exact_tail_bound),

which the bound above overestimates by taking every 1/k as 1/(m+1). The
diagonal is split off first: PER(I + A) = prod_i (1 + a_{i...i})
PER(I + A'), with A' the zero-diagonal normal form of I + A
(dominance.diagonal_normal_form), so ln PER(I + A) is the principal
sum of ln(1 + a_{i...i}) plus ln PER(I + A'), on the branch continued
from 0. (On the square (s, t) in [0, 1]^2 the array D_s + t s A_off, D_s
the diagonal of I + s A and A_off the rest of A, keeps every slice
strictly dominant, so its PER has no zero there and both paths from
(0, 0) to (1, 1) continue the same logarithm.) A slice of A' has mass
R_i / |1 + a_{i...i}| <= R_i / (1 - |a_{i...i}|), R_i the off-diagonal
mass of A, which is at most |a_{i...i}| + R_i whenever that is below 1;
the same holds after any rescaling. And lam may be any lambda of a
rescaled array with the same PER(I + zA'): dominance.scaled_lambda
gives the Perron root rho(|A'|) for a matrix and the NQZ eigenvalue for
a tensor. So the lambda of A' is never above that of A, and is below it
by about the diagonal's share of the mass. The gate is the engine work
that order m - 1 would save, charge(m) - charge(m - 1) with the charge
of components.py that the work cap also reads. At least
engine.BLOCK_ENTRIES (one block's temporary) tries the split, the
scaled lambda and the exact tail, and takes them when they bring the
tail within epsilon at a lower order. Otherwise, and below the gate,
the order, the bound and every byte of the JSON are those of A, the raw
lambda and the bound above.

Cost is quasi-polynomial in n (the order m grows like ln n - ln epsilon),
which is kept honest by explicit work caps instead of silent truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .components import _components, charge, component_sums
from .core import (
    ApproxConfig,
    InadmissibleInputError,
    NormalizationError,
    SizeCapError,
    _is_int,
    as_tensor,
    diagonal_entries,
    pair,
    rounding_gamma,
)
from .dominance import (
    check_dominance_tensor,
    magnitude_lambda,
    require_admissible,
    require_finite,
    split_diagonal,
)
from .engine import BLOCK_ENTRIES
from .summation import ComplexNeumaier

WORK_CAP = 10**9
# most terms that exact_tail_bound sums before it bounds the rest
TAIL_TERMS = 256
# largest Taylor order: 171! and the f_derivs beyond it overflow a float
MAX_ORDER = 170


@dataclass(frozen=True)
class TaylorResult:
    """Derivative data and the evaluated Taylor approximation at z = 1.

    g_derivs[k] and f_derivs[k] are the k-th derivatives at 0 of
    g(z) = per(I + z A) and f = ln g; value is T_m(1) = sum f_k / k!,
    and error_bound certifies |ln per(I + A) - value| on the branch
    continued from f(0) = 0. Where the diagonal split lowers the order
    (module docstring), g is PER(I + z A') of the diagonal normal form A'
    of I + A, and value adds sum_i ln(1 + a_{i...i}) to T_m(1).
    components lists the sizes of the strong components that the minor
    sums factor over (components.py), in order of their smallest
    vertex; lam is the lambda that error_bound holds for and raw_lam the
    largest raw slice mass, equal to lam unless the split is taken. None
    of the three is in the JSON.
    """

    g_derivs: tuple[complex, ...]
    f_derivs: tuple[complex, ...]
    order_m: int
    value: complex
    error_bound: float
    components: tuple[int, ...]
    lam: float
    raw_lam: float

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
            "moduli": self.moduli.tolist(),
        }


def taylor_tail_bound(n: int, lam: float, m: int) -> float:
    """Certified bound on |f(1) - T_m(1)| for a degree-n zero-free g."""
    return n * lam ** (m + 1) / ((m + 1) * (1.0 - lam))


def exact_tail_bound(n: int, lam: float, m: int) -> float:
    """n sum_{k > m} lam^k / k, the tail of ln g's majorant, rounded upward.

    The terms are summed until the rest, at most lam^k / (k (1 - lam))
    from k on, is below one rounding of the sum, or for TAIL_TERMS terms;
    that bound on the rest is then added. Each of the k - m terms, and
    the rest, takes at most k - m + 5 roundings, and their sum and the
    factor n at most k - m + 2 more; 1 + gamma of twice as many, plus
    room, covers them (Higham, ch. 3). Never above taylor_tail_bound but
    by rounding.
    """
    if lam == 0.0:
        return 0.0
    k, term, total = m + 1, lam ** (m + 1), 0.0
    while term > total * (k * (1.0 - lam) * 2.0**-53) and k <= m + TAIL_TERMS:
        total += term / k
        term *= lam
        k += 1
    total += term / (k * (1.0 - lam))
    return math.nextafter(n * total * (1.0 + rounding_gamma(2 * (k - m) + 12)), math.inf)


def choose_order(n: int, lam: float, epsilon: float) -> int:
    """Minimal Taylor order m whose tail bound is at most epsilon.

    The bound falls strictly with m and tends to 0 for lam < 1, so doubling
    m brackets the answer and bisection finds it: O(log m) evaluations,
    also for lam close to 1, where m runs to millions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lo, hi = -1, 0  # the bound is above epsilon at lo (if lo >= 0), within it at hi
    while taylor_tail_bound(n, lam, hi) > epsilon:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if taylor_tail_bound(n, lam, mid) > epsilon else (lo, mid)
    return hi


def _nonempty_tensor(a, finite: bool = True) -> np.ndarray:
    """as_tensor for the Taylor path, which expands around I and so needs n >= 1."""
    arr = as_tensor(a, finite)
    if arr.shape[0] == 0:
        raise ValueError(f"empty array of shape {arr.shape}: n must be positive")
    return arr


def perm_poly_derivs(a, m: int, threads: int = 1, work_cap: int = WORK_CAP) -> list[complex]:
    """Derivatives g^(k)(0) of g(z) = per(I + z A) for k = 0..m.

    Each is k! times the sum of permanents of the k x k principal
    subarrays; A may be a matrix or a cubical tensor (PER of principal
    subtensors). m must be an int in [0, n], the polynomial's degree.
    A minor sum or derivative beyond float64 raises ValueError.
    `threads` is accepted for compatibility and has no effect.
    """
    if not _is_int(m):
        raise ValueError(f"order m must be an int, got {m!r}")
    arr = _nonempty_tensor(a)
    n = arr.shape[0]
    if not 0 <= m <= n:
        raise ValueError(f"order m = {m} must lie in [0, {n}], the polynomial degree")
    sums = component_sums(*_components(arr), m, work_cap)
    derivs = [math.factorial(k) * sums[k] for k in range(m + 1)]
    for k, g in enumerate(derivs):
        if not cmath.isfinite(g):
            raise ValueError(f"derivative g^({k})(0) = {k}! c_{k} overflows float64")
    return derivs


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
    ln per(I) = 0 along z in [0, 1]. The input must be admissible
    (InadmissibleInputError otherwise), and its measured effective lambda
    must not exceed cfg.lam unless that is None; the measured lambda sets
    both the order and the certified bound (tighter at no cost). Without
    cfg.order_override, the diagonal split may lower the order above the
    gate, and then gives the bound (module docstring). An order above
    MAX_ORDER raises SizeCapError before any minor sum. `threads` is
    accepted for compatibility and has no effect.
    """
    # check_dominance_tensor checks the entries through their slice masses
    arr = _nonempty_tensor(a, finite=False)
    report = require_admissible(arr)
    if cfg.lam is not None and report.effective_lambda > cfg.lam:
        raise InadmissibleInputError(
            f"measured effective lambda {report.effective_lambda:.6g} exceeds "
            f"configured bound {cfg.lam:.6g}"
        )
    lam = raw_lam = report.effective_lambda
    n = arr.shape[0]
    array, groups = _components(arr)
    sizes = tuple(map(len, groups))
    if cfg.order_override is not None:
        m, saving = cfg.order_override, 0
    else:
        m = choose_order(n, lam, cfg.epsilon)
        saving = charge(sizes, arr.ndim, m) - charge(sizes, arr.ndim, m - 1)
    bound = taylor_tail_bound(n, lam, m)
    log_prefactor = 0j
    if saving >= BLOCK_ENTRIES:
        # the diagonal goes into an exact prefactor; the rest is expanded
        # instead of A only when the exact tail at its scaled lambda lowers
        # the order. Off the diagonal A + 0.0 is I + A bit for bit: both
        # turn a -0.0 into +0.0.
        split, split_prefactor = split_diagonal(array + 0.0, diagonal_entries(array) + 1.0)
        split_lam, split_m = magnitude_lambda(np.abs(split))[0], m
        # the tail at m - 1 is at least its first term, rounded as it rounds it
        while (
            split_m > 0
            and n * (split_lam**split_m / split_m) <= cfg.epsilon
            and (tail := exact_tail_bound(n, split_lam, split_m - 1)) <= cfg.epsilon
        ):
            split_m, split_bound = split_m - 1, tail
        if split_m < m:
            array, log_prefactor = split, split_prefactor
            lam, m, bound = split_lam, split_m, split_bound
    if m > MAX_ORDER:
        raise SizeCapError(f"Taylor order m = {m} is above the limit of {MAX_ORDER}")
    # g has degree n: c_k is 0j beyond it, as product pads each row past n_C
    sums = component_sums(array, groups, m, work_cap)
    g = [math.factorial(k) * sums[k] for k in range(m + 1)]
    f = log_derivatives(g)
    acc = ComplexNeumaier()
    # +0j unless the split is taken, which leaves the sum's bits as they were
    acc.add(log_prefactor)
    for k in range(m + 1):
        acc.add(f[k] / math.factorial(k))
    return TaylorResult(
        g_derivs=tuple(g),
        f_derivs=tuple(f),
        order_m=m,
        value=acc.value(),
        error_bound=bound,
        components=sizes,
        lam=lam,
        raw_lam=raw_lam,
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

    Each grid value evaluates the product of the component polynomials by
    Horner's rule; its radial x angular x (n + 1) steps are charged against
    `work_cap` before any work. Where its terms cancel, as on the sign -1 block family,
    a small modulus can lie far above the true one (ROADMAP item I). A
    grid value that overflows raises ValueError, which names the radius.
    Default radius is 0.99 / effective_lambda, just inside the disk that
    admissibility certifies to be zero-free. `threads` is accepted for
    compatibility and has no effect.
    """
    if radial < 1 or angular < 1:
        raise ValueError("grid resolution must be positive")
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    arr = _nonempty_tensor(a)
    steps = radial * angular * (arr.shape[0] + 1)
    if steps > work_cap:
        raise SizeCapError(
            f"zero-scan grid needs radial x angular x (n + 1) = {steps} steps, "
            f"cap is {work_cap}"
        )
    if radius is None:
        lam = require_finite(check_dominance_tensor(arr)).effective_lambda
        radius = 0.99 / lam if lam > 0 else 1.0
    sums = component_sums(*_components(arr), arr.shape[0], work_cap)
    radii = np.linspace(0.0, radius, radial)
    thetas = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.abs(np.polyval(sums[::-1], z))
    if not np.isfinite(moduli).all():
        raise ValueError(
            f"zero-scan radius {radius!r} is too large: the polynomial overflows on the grid"
        )
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
