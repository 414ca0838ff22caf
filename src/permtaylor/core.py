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

    lam            dominance bound in [0, 1); the input's measured row/slice
                    sums must not exceed it
    epsilon        target additive error on the log, in (0, 1)
    order_override optional forced Taylor order (skips automatic selection)
    """

    lam: float
    epsilon: float
    order_override: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.order_override is not None and self.order_override < 0:
            raise ValueError("order_override must be non-negative")


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a square complex matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return as_tensor(arr)


def as_tensor(a) -> np.ndarray:
    """Validate and convert to a cubical tensor of dimension >= 2."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"expected a tensor of dimension >= 2, got shape {arr.shape}")
    n = arr.shape[0]
    if any(s != n for s in arr.shape):
        raise ValueError(f"expected a cubical tensor, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries (NaN or Inf) are not admitted")
    return arr


def identity_matrix(n: int) -> np.ndarray:
    return identity_tensor(2, n)


def identity_tensor(d: int, n: int) -> np.ndarray:
    """Cubical tensor with ones on the diagonal entries (i, ..., i)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    arr = np.zeros((n,) * d, dtype=np.complex128)
    arr[diagonal_index(d, n)] = 1.0
    return arr


def diagonal_index(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Index of the diagonal entries (i, ..., i) of an n^d array."""
    return (np.arange(n),) * d


def diagonal_entries(t: np.ndarray) -> np.ndarray:
    """The entries t[i, ..., i] for i = 0..n-1."""
    return t[diagonal_index(t.ndim, t.shape[0])]


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
    """Wire pairs [re, im] as a complex vector, of length `count` if given."""
    if not isinstance(raw, list) or count not in (None, len(raw)):
        length = "" if count is None else f" of length {count}"
        raise ValueError(f"entries must be a list{length}")
    out = np.empty(len(raw), dtype=np.complex128)
    for i, item in enumerate(raw):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(v, float) or _is_int(v) for v in item)
        ):
            raise ValueError(f"entry {i} must be a pair [re, im] of numbers")
        re, im = float(item[0]), float(item[1])
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
    d, n = d or obj["d"], obj["n"]
    if not _is_int(d) or d < 2:
        raise ValueError('"d" must be an integer >= 2')
    if not _is_int(n) or n < 1:
        raise ValueError('"n" must be a positive integer')
    return d, n


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

def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite number in JSON output")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _render(str(key), out)
            out.append(": ")
            _render(val, out)
        out.append("}")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def json_dumps(obj) -> str:
    """Serialize to JSON with floats rendered to 17 significant digits.

    Key order follows dict insertion order, so identical documents render
    byte-identically.
    """
    out: list[str] = []
    _render(obj, out)
    return "".join(out)
