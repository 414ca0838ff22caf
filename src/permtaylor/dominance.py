"""Row and slice l1-dominance checks and permanent-preserving rescalings.

A matrix A is admissible when sum_j |a_ij| < 1 for every row i; a tensor
when every axis-0 slice has l1 mass below 1. Admissibility keeps
per(I + A) (PER for tensors) away from zero, which is what the Taylor
approximation of the log-permanent relies on. Two normalizations reduce
more general inputs to the admissible zero-diagonal form:

  * a strongly row-dominant matrix B with lam |b_ii| >= sum_{j != i} |b_ij|
    factors as per B = (prod_i b_ii) * per(I + A) after dividing each row
    by its diagonal entry;
  * an admissible A with nonzero diagonal factors as
    per(I + A) = (prod_i (1 + a_ii)) * per(I + A') with A' zero-diagonal.

Both return the complex log of the prefactor as a plain sum of principal
per-factor logs. The imaginary part is deliberately not reduced mod 2*pi:
downstream consumers add it to a branch-consistent log-permanent anchored
at 0, and reducing it would introduce spurious winding jumps across
families of inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    InadmissibleInputError,
    SingularScalingError,
    as_matrix,
    as_tensor,
    diagonal_entries,
    diagonal_index,
)


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
        return {
            "row_sums": list(self.row_sums),
            "effective_lambda": self.effective_lambda,
            "admissible": self.admissible,
            "form": self.form.value,
        }


@dataclass(frozen=True)
class NormalizedProblem:
    """A zero-diagonal admissible array plus the log of the split-off factor.

    exp(log_prefactor) * per(I + a) recovers the permanent of the original
    input exactly (testable against the exact engine at small n).
    """

    a: np.ndarray
    log_prefactor: complex
    report: DominanceReport


def _report(sums: np.ndarray, zero_diag: bool, form: DominanceForm | None = None) -> DominanceReport:
    if form is None:
        form = DominanceForm.ZERO_DIAGONAL_A if zero_diag else DominanceForm.SHIFTED_I_PLUS_A
    row_sums = tuple(float(s) for s in sums)
    eff = max(row_sums) if row_sums else 0.0
    return DominanceReport(row_sums, eff, eff < 1.0, form)


def check_dominance_matrix(a) -> DominanceReport:
    """Row sums sum_j |a_ij| (diagonal included) and max over rows."""
    return check_dominance_tensor(as_matrix(a))


def check_dominance_tensor(a) -> DominanceReport:
    """l1 mass of each axis-0 slice and the max over slices."""
    arr = as_tensor(a)
    n = arr.shape[0]
    sums = np.abs(arr).reshape(n, -1).sum(axis=1)
    zero_diag = bool(np.all(diagonal_entries(arr) == 0))
    return _report(sums, zero_diag)


def require_admissible(a) -> DominanceReport:
    """check_dominance_tensor's report, or InadmissibleInputError if lambda >= 1."""
    report = check_dominance_tensor(a)
    if not report.admissible:
        raise InadmissibleInputError(
            f"input is not admissible (effective lambda {report.effective_lambda:.6g} >= 1)"
        )
    return report


def scaled_dominance_report(b) -> DominanceReport:
    """Off-diagonal mass of each row of a general matrix B relative to |b_ii|.

    effective_lambda is the smallest lam for which B is strongly
    row-dominant with parameter lam.
    """
    arr = as_matrix(b)
    diag = np.diagonal(arr)
    if np.any(diag == 0):
        raise SingularScalingError("matrix has a zero diagonal entry")
    off = np.abs(arr).sum(axis=1) - np.abs(diag)
    return _report(off / np.abs(diag), zero_diag=False, form=DominanceForm.GENERAL_B)


def normalize_strongly_dominant(b, lam: float) -> NormalizedProblem:
    """Divide each row of a strongly dominant B by its diagonal entry.

    Requires lam < 1 and lam * |b_ii| >= sum_{j != i} |b_ij| for every i.
    Returns the zero-diagonal A with a_ij = b_ij / b_ii off the diagonal
    and log_prefactor = sum_i Log b_ii, so that
    exp(log_prefactor) * per(I + A) = per B.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    arr = as_matrix(b)
    diag = np.diagonal(arr)
    if np.any(diag == 0):
        raise SingularScalingError("matrix has a zero diagonal entry")
    off = np.abs(arr).sum(axis=1) - np.abs(diag)
    bad = off > lam * np.abs(diag)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InadmissibleInputError(
            f"row {i} violates strong dominance: off-diagonal mass {off[i]:.6g} "
            f"> lam * |b_ii| = {lam * abs(diag[i]):.6g}"
        )
    a = arr / diag[:, None]
    np.fill_diagonal(a, 0.0)
    log_prefactor = complex(np.sum(np.log(diag)))
    return NormalizedProblem(a, log_prefactor, check_dominance_matrix(a))


def strip_diagonal(a) -> NormalizedProblem:
    """Move the diagonal of an admissible A into a multiplicative prefactor.

    Divides row i (axis-0 slice i for tensors) of I + A by 1 + a_ii and
    zeroes the diagonal. The result stays admissible: the off-diagonal
    row mass is below 1 - |a_ii| <= |1 + a_ii|.
    """
    arr = as_tensor(a)
    require_admissible(arr)
    n = arr.shape[0]
    diag = diagonal_entries(arr)
    factors = 1.0 + diag
    shape = (n,) + (1,) * (arr.ndim - 1)
    out = arr / factors.reshape(shape)
    out[diagonal_index(arr.ndim, n)] = 0.0
    log_prefactor = complex(np.sum(np.log(factors)))
    return NormalizedProblem(out, log_prefactor, check_dominance_tensor(out))
