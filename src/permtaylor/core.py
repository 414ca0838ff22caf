"""Shared container types, validation, and the JSON wire format.

Matrices are dense square complex128 ndarrays; tensors are dense cubical
d-dimensional complex128 ndarrays (d >= 2, every axis of length n). All
arrays are treated as immutable after construction and may be shared
freely across workers.

Wire format: a complex number is a two-element array [re, im]; a matrix is
{"n": n, "entries": [...]} with entries in row-major order; a tensor is
{"d": d, "n": n, "entries": [...]} with entries in lexicographic order of
the index tuple (i1, ..., id). All indices are 0-based.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


class SizeCapError(RuntimeError):
    """An enumeration would exceed the configured size or work cap."""


class InadmissibleInputError(ValueError):
    """Input violates the row/slice l1-dominance hypothesis."""


class SingularScalingError(InadmissibleInputError):
    """A diagonal entry required for row scaling is zero."""


class InvalidMatchingError(InadmissibleInputError):
    """A claimed base matching is not a perfect matching of the hypergraph."""


class NormalizationError(ValueError):
    """A derivative sequence is not normalized to value 1 at order 0."""


@dataclass(frozen=True)
class ApproxConfig:
    """Approximation parameters.

    lam            dominance bound in [0, 1) that the input's measured
                    row/slice sums must not exceed, or None to use the
                    measured effective lambda itself
    epsilon        target additive error on the log, in (0, 1)
    order_override optional forced Taylor order (skips automatic selection)
    """

    lam: float | None
    epsilon: float
    order_override: int | None = None

    def __post_init__(self) -> None:
        if self.lam is not None and not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.order_override is not None:
            if not _is_int(self.order_override):
                raise ValueError(f"order_override must be an int, got {self.order_override!r}")
            if self.order_override < 0:
                raise ValueError("order_override must be non-negative")


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a square complex matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return as_tensor(arr)


def as_tensor(a, finite: bool = True) -> np.ndarray:
    """Validate and convert to a cubical tensor of dimension >= 2; with
    finite False, the caller checks that the entries are finite."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"expected a tensor of dimension >= 2, got shape {arr.shape}")
    if arr.shape != arr.shape[:1] * arr.ndim:
        raise ValueError(f"expected a cubical tensor, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError("non-finite entries (NaN or Inf) are not admitted")
    return arr


def identity_tensor(d: int, n: int) -> np.ndarray:
    """Cubical tensor with ones on the diagonal entries (i, ..., i)."""
    check_sizes(d, n)
    arr = np.zeros((n,) * d, dtype=np.complex128)
    arr[diagonal_index(d, n)] = 1.0
    return arr


def diagonal_index(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Index of the diagonal entries (i, ..., i) of an n^d array."""
    return (np.arange(n),) * d


def diagonal_entries(t: np.ndarray) -> np.ndarray:
    """The entries t[i, ..., i] for i = 0..n-1, to read: a view where t is contiguous."""
    n = t.shape[0]
    # (i, ..., i) lies at i (1 + n + ... + n^(d-1)) in the flat array
    return t.reshape(-1)[:: sum(n**k for k in range(t.ndim))]


def rounding_gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: a result of k
    roundings on non-negative terms lies within this relative distance of
    its exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3)."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def pair(z: complex) -> list[float]:
    """Render a complex number as the wire pair [re, im]."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _entries_from_json(raw, count: int | None = None) -> np.ndarray:
    """Wire pairs [re, im] as a complex vector, of length `count` if given.

    Well-formed input, pairs whose items are all of type float or int, is
    converted in one array operation. Anything else, and any non-finite
    value, goes to the entry-by-entry check, which raises on the first bad
    entry.
    """
    if not isinstance(raw, list) or count not in (None, len(raw)):
        length = "" if count is None else f" of length {count}"
        raise ValueError(f"entries must be a list{length}")
    if set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}:
        flat = list(itertools.chain.from_iterable(raw))
        # exact types: bool is not an int here, and np.array would coerce "0.1"
        if set(map(type, flat)) <= {float, int}:
            with contextlib.suppress(OverflowError):  # an int beyond float range
                parts = np.array(flat, dtype=np.float64)
                if np.isfinite(parts).all():
                    return parts.view(np.complex128)
    return _checked_entries(raw)


def _checked_entries(raw: list) -> np.ndarray:
    """_entries_from_json one entry at a time, raising on the first bad one."""
    out = np.empty(len(raw), dtype=np.complex128)
    for i, item in enumerate(raw):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(v, float) or _is_int(v) for v in item)
        ):
            raise ValueError(f"entry {i} must be a pair [re, im] of numbers")
        try:
            re, im = float(item[0]), float(item[1])
        except OverflowError:  # an int beyond float range
            re = math.inf
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"entry {i} is not finite")
        out[i] = complex(re, im)
    return out


def json_header(obj, kind: str, body: str, d: int | None = None) -> tuple[int, int]:
    """(d, n) of a `kind` JSON object with keys "d", "n" and `body`.

    A fixed `d` (2 for a matrix) is not read from the object.
    """
    keys = ("n", body) if d else ("d", "n", body)
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        *head, last = (f'"{k}"' for k in keys)
        raise ValueError(f"{kind} JSON must have keys {', '.join(head)} and {last}")
    return check_sizes(d or obj["d"], obj["n"])


def check_sizes(d, n) -> tuple[int, int]:
    """(d, n), or ValueError unless d >= 2 and n >= 1 are ints (not bools)."""
    if not _is_int(d) or d < 2:
        raise ValueError('"d" must be an integer >= 2')
    if not _is_int(n) or n < 1:
        raise ValueError('"n" must be a positive integer')
    return d, n


def dense_entries_exceed(n: int, d: int, cap) -> bool:
    """Whether n^d > cap, without a huge power: any n >= 2 passes cap by d = its bit length."""
    return n ** min(d, int(cap).bit_length()) > cap


def _array_from_json(obj, kind: str, d: int | None = None) -> np.ndarray:
    d, n = json_header(obj, kind, "entries", d)
    return _entries_from_json(obj["entries"], n**d).reshape((n,) * d)


def matrix_from_json(obj) -> np.ndarray:
    return _array_from_json(obj, "matrix", 2)


def matrix_to_json(a) -> dict:
    arr = as_matrix(a)
    return {"n": int(arr.shape[0]), "entries": [pair(z) for z in arr.ravel()]}


def tensor_from_json(obj) -> np.ndarray:
    return _array_from_json(obj, "tensor")


def tensor_to_json(t) -> dict:
    arr = as_tensor(t)
    return {
        "d": int(arr.ndim),
        "n": int(arr.shape[0]),
        "entries": [pair(z) for z in arr.ravel()],
    }


# ---------------------------------------------------------------------------
# Deterministic JSON rendering (17 significant digits for floats)
# ---------------------------------------------------------------------------

@functools.cache
def _float_list_format(rows: int, length: int) -> str:
    """'[%.17g, ..., %.17g]' with `length` fields, or a list of `rows` of them."""
    row = "[" + ", ".join(["%.17g"] * length) + "]"
    return "[" + ", ".join([row] * rows) + "]" if rows else row


def _float_rows(obj: list):
    """(floats, format) of a list of floats, or of equal-length lists of them
    such as complex pairs and grid rows, else None; the format renders them
    in the bytes that the items give one by one."""
    if set(map(type, obj)) == {float}:
        return obj, _float_list_format(0, len(obj))
    if set(map(type, obj)) == {list} and len(set(map(len, obj))) == 1:
        flat = list(itertools.chain.from_iterable(obj))
        if set(map(type, flat)) == {float}:
            return flat, _float_list_format(len(obj), len(obj[0]))
    return None


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        floats, form = [float(obj)], "%.17g"
    elif isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    elif isinstance(obj, list) and obj and (rows := _float_rows(obj)):
        floats, form = rows
    elif isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_render, obj)) + "]"
    elif isinstance(obj, dict):
        return "{" + ", ".join(_render(str(k)) + ": " + _render(v) for k, v in obj.items()) + "}"
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite number in JSON output")
    return form % tuple(floats)


def json_dumps(obj) -> str:
    """Serialize to JSON with floats rendered to 17 significant digits.

    Key order follows dict insertion order, so identical documents render
    byte-identically.
    """
    return _render(obj)
