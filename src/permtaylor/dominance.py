"""Row and slice l1-dominance checks and the diagonal normal form.

A matrix A is admissible when sum_j |a_ij| < 1 for every row i; a tensor
when every axis-0 slice has l1 mass below 1. Admissibility keeps
per(I + A) (PER for tensors) away from zero, which is what the Taylor
approximation of the log-permanent relies on.

A cubical B with a nonzero diagonal has one normal form: divide each
axis-0 slice i by b_{i...i} and zero the diagonal. Every term of PER
takes one entry from each axis-0 slice, so
PER B = (prod_i b_{i...i}) * PER(I + A'). For B = I + A this moves the
diagonal of A into the prefactor. The complex log of the prefactor is a
plain sum of principal per-factor logs. Its imaginary part is
deliberately not reduced mod 2*pi: downstream consumers add it to a
branch-consistent log-permanent anchored at 0, and reducing it would
introduce spurious winding jumps across families of inputs.

The raw slice masses are not the best lambda that the zero-free disk
allows. For a positive vector y, rescaling entry (i, j_1, ..., j_{d-1})
by prod_t y[j_t] / y[i]^(d-1) multiplies every term of PER by
prod_t prod_i y[sigma_t(i)] / prod_i y[i]^(d-1) = 1 and keeps the
diagonal, so PER(I + zA) does not change, and the largest slice mass of
the rescaled array certifies the same disk. scaled_lambda searches y by
power iteration: for a matrix its limit is the Perron root rho(|A|), the
least such lambda (Collatz-Wielandt; Horn & Johnson, Matrix Analysis,
sec. 8.1), and for a tensor the NQZ iteration of Ng, Qi & Zhou, SIAM J.
Matrix Anal. Appl. 31 (2009) 1090-1099. Admissibility, the dominance
report and everything printed from it stay on the raw masses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InadmissibleInputError,
    SingularScalingError,
    as_matrix,
    as_tensor,
    diagonal_entries,
    diagonal_index,
    rounding_gamma,
)


# most power-iteration steps in scaled_lambda, and the relative fall in
# lambda below which a step ends the iteration
SCALING_STEPS = 16
SCALING_TOL = 1e-4


class DominanceForm(enum.Enum):
    """What kind of input a dominance report describes."""

    ZERO_DIAGONAL_A = "zero_diagonal_a"
    SHIFTED_I_PLUS_A = "shifted_i_plus_a"
    GENERAL_B = "general_b"


@dataclass(frozen=True)
class DominanceReport:
    """Per-row (per-slice) l1 sums and the resulting admissibility verdict."""

    row_sums: tuple[float, ...]
    effective_lambda: float
    admissible: bool
    form: DominanceForm

    def to_json(self) -> dict:
        require_finite(self)
        return {
            "row_sums": list(self.row_sums),
            "effective_lambda": self.effective_lambda,
            "admissible": self.admissible,
            "form": self.form.value,
        }


@dataclass(frozen=True)
class NormalizedProblem:
    """The zero-diagonal normal form of B plus the log of the split-off factor.

    exp(log_prefactor) * PER(I + a) recovers PER B up to rounding
    (testable against the exact engine at small n).
    """

    a: np.ndarray
    log_prefactor: complex
    report: DominanceReport


def _report(sums: np.ndarray, form: DominanceForm) -> DominanceReport:
    """Python's max skips a NaN that is not first, so a NaN mass is carried
    into effective_lambda by hand; a non-finite lambda is never admissible."""
    row_sums = tuple(float(s) for s in sums)
    eff = math.nan if any(map(math.isnan, row_sums)) else max(row_sums, default=0.0)
    return DominanceReport(row_sums, eff, eff < 1.0, form)


def _slice_sums(arr: np.ndarray) -> np.ndarray:
    """l1 mass of each axis-0 slice of an n^d array (n = 0 included).

    A mass beyond float64 is inf, which is inadmissible; require_finite
    names it where a report's figures are used.
    """
    n = arr.shape[0]
    with np.errstate(over="ignore"):
        return np.abs(arr).reshape(n, n ** (arr.ndim - 1)).sum(axis=1)


def require_finite(report: DominanceReport) -> DominanceReport:
    """The report, or ValueError naming the first slice whose mass overflows."""
    bad = [i for i, s in enumerate(report.row_sums) if not math.isfinite(s)]
    if bad:
        relative = "relative " if report.form is DominanceForm.GENERAL_B else ""
        raise ValueError(f"the {relative}l1 mass of axis-0 slice {bad[0]} overflows float64")
    return report


def scaled_lambda(a) -> tuple[float, np.ndarray]:
    """A lambda no larger than the raw slice masses, and the y that certifies it.

    Power iteration on |A|: x = |A| contracted with y on each of the d - 1
    permutation axes, then y <- x^(1/(d-1)), normalised to max 1. Each
    positive y certifies lambda(y) = max_i x_i / y_i^(d-1), the largest
    slice mass of the rescaled array (module docstring). It is computed
    in k = (d - 1)(n + 1) + d roundings of non-negative terms and rounded
    upward by 1 + gamma_2k, which covers 1 / (1 - gamma_k). The iteration
    runs while lambda(y) falls by more than a relative SCALING_TOL, at
    most SCALING_STEPS times; a y with a zero or non-finite entry ends it.
    Returns min(raw lambda, least lambda(y)) and its y, which is all ones
    when no step beat the raw masses. For d = 2 this is plain power
    iteration, and lambda(y) falls to rho(|A|).
    """
    arr = as_tensor(a)
    d, n = arr.ndim, arr.shape[0]
    slack = 1.0 + rounding_gamma(2 * ((d - 1) * (n + 1) + d))
    with np.errstate(all="ignore"):
        mag = np.abs(arr)
        x = mag.reshape(n, n ** (d - 1)).sum(axis=1)
        best, best_y, last = float(x.max(initial=0.0)), np.ones(n), math.inf
        for _ in range(SCALING_STEPS if n else 0):
            # an inf or NaN in x leaves a NaN or a 0 in y
            y = (x / x.max()) ** (1.0 / (d - 1))
            if not (y > 0).all():
                break
            x = mag
            for _ in range(d - 1):
                x = x @ y
            lam = math.nextafter(float((x / y ** (d - 1)).max()) * slack, math.inf)
            if lam < best:
                best, best_y = lam, y
            if not lam < last * (1.0 - SCALING_TOL):
                break
            last = lam
    return best, best_y


def check_dominance_matrix(a) -> DominanceReport:
    """Row sums sum_j |a_ij| (diagonal included) and max over rows."""
    return check_dominance_tensor(as_matrix(a))


def check_dominance_tensor(a) -> DominanceReport:
    """l1 mass of each axis-0 slice and the max over slices."""
    arr = as_tensor(a)
    zero_diag = bool(np.all(diagonal_entries(arr) == 0))
    form = DominanceForm.ZERO_DIAGONAL_A if zero_diag else DominanceForm.SHIFTED_I_PLUS_A
    return _report(_slice_sums(arr), form)


def require_admissible(a) -> DominanceReport:
    """check_dominance_tensor's report, or InadmissibleInputError if lambda >= 1."""
    report = check_dominance_tensor(a)
    if not report.admissible:
        raise InadmissibleInputError(
            f"input is not admissible (effective lambda {report.effective_lambda:.6g} >= 1)"
        )
    return report


def diagonal_normal_form(b) -> NormalizedProblem:
    """Divide each axis-0 slice of a cubical B by its diagonal entry.

    Returns the zero-diagonal A' with a'_{i j...} = b_{i j...} / b_{i...i}
    and log_prefactor = sum_i Log b_{i...i}, so that
    exp(log_prefactor) * PER(I + A') = PER B. Raises SingularScalingError
    on a zero diagonal entry, and nothing on dominance: the report (form
    general_b) gives each slice's off-diagonal mass relative to
    |b_{i...i}|, so B is strongly dominant with parameter lam exactly when
    effective_lambda <= lam, and A' is admissible when report.admissible.
    """
    arr = as_tensor(b)
    n = arr.shape[0]
    diag = diagonal_entries(arr)
    zeros = np.flatnonzero(diag == 0)
    if zeros.size:
        raise SingularScalingError(f"diagonal entry {zeros[0]} is zero")
    # a quotient beyond float64 shows as a non-finite mass in the report
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(diag)
        a = arr / diag.reshape((n,) + (1,) * (arr.ndim - 1))
        a[diagonal_index(arr.ndim, n)] = 0.0
        report = _report((_slice_sums(arr) - scale) / scale, DominanceForm.GENERAL_B)
    return NormalizedProblem(a, complex(np.sum(np.log(diag))), report)
