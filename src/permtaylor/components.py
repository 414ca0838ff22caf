"""PER(I + zA) as a product over the strong components of its support: the
split, its engine work, one engine row per component and their product."""

from __future__ import annotations

import cmath
import functools
import operator

import numpy as np

from .core import SizeCapError
from .engine import minor_sum_work, minor_sums


def _reach(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of the digraph adj[i, j], as bools.

    Squares the 0/1 matrix of I + adj until it stops changing, at most
    log2(n) products; each sums non-negative terms, so its sign reads
    every path exactly.
    """
    r = adj.astype(np.float32)
    r.flat[:: len(r) + 1] = 1.0
    while True:
        s = np.sign(r @ r)
        if (s == r).all():
            return s > 0
        r = s


def _strong_components(adj: np.ndarray) -> np.ndarray:
    """The root of each vertex's strong component in the digraph adj[i, j]:
    its smallest vertex, the first that the vertex reaches and is reached from."""
    reach = _reach(adj)
    return (reach & reach.T).argmax(axis=1)


def _arcs(keep: np.ndarray) -> list[np.ndarray]:
    """G_1, ..., G_{d-1} as n x n bools: i -> j_t for each kept a[i, j_1, ..., j_{d-1}]."""
    d = keep.ndim
    return [keep.any(axis=tuple(s for s in range(1, d) if s != t)) for t in range(1, d)]


def _components(arr: np.ndarray) -> tuple[np.ndarray, list]:
    """The support's strong components: (array, vertex groups), each group
    its vertices in increasing order.

    G_t is the digraph with an arc i -> j_t for each nonzero entry
    a[i, j_1, ..., j_{d-1}]. Every cycle of the t-th permutation in a term
    of PER(I + zA) is a cycle of G_t, so an entry whose j_t lies outside
    the strong component of i in G_t is on no term. For d >= 3 such
    entries are zeroed until none is left (pruning), which may cut cycles
    of the other G_t. The groups are then the strong components of the
    union of the G_t, in order of their smallest vertex, and PER(I + zA)
    is the product of PER(I + zA_C) over the principal subarrays A_C of
    the returned array, which holds +0.0 at every entry it does not keep.
    When there is one group, the array is arr itself; an array with no
    zero entry is one group at once.
    """
    d, n = arr.ndim, arr.shape[0]
    if np.count_nonzero(arr) == arr.size:
        # every G_t is complete: one component, and every entry is on a term
        return arr, [range(n)]
    keep = arr != 0
    arcs = [keep] if d == 2 else _arcs(keep)
    while d > 2:
        kept = keep.copy()
        for t, g in enumerate(arcs, 1):
            # i -> j_t is an arc, so they share a component when j_t reaches i
            kept &= _reach(g).T.reshape([n if s in (0, t) else 1 for s in range(d)])
        if kept.sum() == keep.sum():
            break
        keep, arcs = kept, _arcs(kept)
    # a root is the first vertex of its group, so the groups come in order
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(_strong_components(functools.reduce(np.logical_or, arcs)).tolist()):
        groups.setdefault(root, []).append(v)
    if len(groups) == 1:
        return arr, [range(n)]
    return np.where(keep, arr, 0), list(groups.values())


def charge(sizes, d: int, m: int) -> int:
    """Engine work of the minor sums at order m: component C runs at
    min(m, n_C), so the work that order m - 1 saves is charge(m) - charge(m - 1)."""
    return sum(sizes.count(s) * minor_sum_work(s, d, min(m, s)) for s in set(sizes))


def engine_rows(array: np.ndarray, groups, m: int) -> list[list[complex]]:
    """Row C holds c_{C,0..min(m, n_C)} of component C. The components of
    each size go to the engine as one stack, gathered in one indexing
    call; each one's sums are bit for bit those of a stack of its own."""
    d, sizes, rows = array.ndim, [len(g) for g in groups], {}
    # with m fixed, the size also fixes the order
    for size in dict.fromkeys(sizes):
        members = [c for c, s in enumerate(sizes) if s == size]
        at = np.array([groups[c] for c in members])
        axes = [at.reshape((len(at),) + (1,) * t + (size,) + (1,) * (d - 1 - t)) for t in range(d)]
        rows.update(zip(members, minor_sums(array[tuple(axes)], min(m, size)).tolist()))
    return [rows[c] for c in range(len(groups))]


def product(rows, m: int) -> list[complex]:
    """Coefficients 0..m of the product of the rows' polynomials, in row
    order, from the first row padded with zeros: one row comes back bit for
    bit. Coefficient i of each later product sums c_j p_(i-j) over j = 0..
    in that order, from 0, so lower orders are a bit-exact prefix of higher."""
    first, *rest = rows
    sums = first + [complex(0.0)] * (m + 1 - len(first))
    for c in rest:
        sums = [sum(map(operator.mul, c, sums[i::-1])) for i in range(m + 1)]
    return sums


def component_sums(array: np.ndarray, groups, m: int, work_cap: int) -> list[complex]:
    """c_k = sum over k-subsets I of PER A_I, for k = 0..m, of the split
    (array, groups) of _components, or of an array with the same components.
    charge(m) must be at most work_cap. A sum beyond float64 raises
    ValueError, which names it; the engine's overflow warnings are silenced,
    since an overflow in any step leaves some sum non-finite."""
    work = charge([len(g) for g in groups], array.ndim, m)
    if work > work_cap:
        raise SizeCapError(f"minor-sum engine needs ~{work} ops, cap is {work_cap}")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = product(engine_rows(array, groups, m), m)
    for k, c in enumerate(sums):
        if not cmath.isfinite(c):
            raise ValueError(f"minor sum c_{k} overflows float64")
    return sums
