"""Reproducible instance generators for demos, benchmarks, and tests."""

from __future__ import annotations

import numpy as np

from .core import diagonal_index
from .hypergraph import DPartiteHypergraph


def block_extremal_matrix(n: int, lam: float, sign: int = 1) -> np.ndarray:
    """Zero-diagonal block matrix with 2x2 blocks [[0, lam], [sign*lam, 0]].

    per(I + A) = (1 + sign * lam^2)^(n // 2), the extremes of |per(I + A)|
    over admissible zero-diagonal matrices with row sums lam. Odd n leaves
    a trailing zero row.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = np.zeros((n, n), dtype=np.complex128)
    for b in range(n // 2):
        i, j = 2 * b, 2 * b + 1
        a[i, j] = lam
        a[j, i] = sign * lam
    return a


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_admissible_tensor(
    d: int, n: int, lam: float, rng: np.random.Generator, zero_diag: bool = False
) -> np.ndarray:
    """Random complex matrix (d = 2) or tensor with every axis-0 slice mass
    in [0.8, 0.999] * lam."""
    if zero_diag and n < 2:
        raise ValueError("a zero-diagonal array needs n >= 2 to carry any mass")
    t = _complex_normal(rng, (n,) * d)
    if zero_diag:
        t[diagonal_index(d, n)] = 0.0
    targets = lam * rng.uniform(0.8, 0.999, size=n)
    sums = np.abs(t).reshape(n, -1).sum(axis=1)
    t *= (targets / sums).reshape((n,) + (1,) * (d - 1))
    return t


def random_hermitian_admissible(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix scaled so the largest row sum is 0.9 * lam."""
    m = _complex_normal(rng, (n, n))
    h = (m + m.conj().T) / 2.0
    h *= 0.9 * lam / np.abs(h).sum(axis=1).max()
    return h


def random_dominant_matrix(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Random strongly row-dominant matrix: lam |b_ii| >= off-diagonal mass.

    Diagonal entries get random phases so the scaling prefactor exercises
    the complex log.
    """
    b = _complex_normal(rng, (n, n))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    for i in range(n):
        off = np.abs(b[i]).sum() - abs(b[i, i])
        scale = off / (lam * rng.uniform(0.7, 0.98)) if off > 0 else 1.0
        b[i, i] = scale * phases[i]
    return b


def random_hypergraph(
    d: int,
    n: int,
    extra_edges: int,
    rng: np.random.Generator,
    delta_cap: int | None = None,
) -> DPartiteHypergraph:
    """Diagonal perfect matching plus random distinct off-diagonal edges.

    delta_cap bounds the number of edges through each first-part vertex
    (the diagonal edge included). May return fewer than extra_edges extras
    when the caps leave no room. Drawing stops once no first-part vertex
    can take another edge, which skips only draws that would be rejected.
    """
    if extra_edges < 0:
        raise ValueError(f"extra_edges must be non-negative, got {extra_edges}")
    if delta_cap is not None and delta_cap < 1:
        raise ValueError(f"delta_cap must be at least 1, got {delta_cap}")
    edges = {(i,) * d for i in range(n)}
    degs = [1] * n
    # most edges through one first-part vertex, and the vertices below it
    room = n ** (d - 1) if delta_cap is None else min(delta_cap, n ** (d - 1))
    open_vertices = n if room > 1 else 0
    attempts = 0
    added = 0
    while added < extra_edges and open_vertices and attempts < 50 * (extra_edges + 1):
        attempts += 1
        e = tuple(int(v) for v in rng.integers(0, n, size=d))
        if e in edges or degs[e[0]] >= room:
            continue
        edges.add(e)
        degs[e[0]] += 1
        if degs[e[0]] == room:
            open_vertices -= 1
        added += 1
    return DPartiteHypergraph(d, n, tuple(sorted(edges)))
