"""Taylor approximation of the log-permanent on a dominance-certified disk.

For a matrix A with row sums sum_j |a_ij| <= lam < 1, the polynomial
g(z) = per(I + z A) has no zeros in |z| < 1/lam, so f(z) = ln g(z) admits
a continuous branch with f(0) = 0, and the order-m Taylor polynomial of f
at 0 approximates f(1) = ln per(I + A) with certified tail

    |f(1) - T_m(1)| <= n lam^(m+1) / ((m+1)(1 - lam)).

The derivatives of g at 0 are principal-minor sums,

    g^(k)(0) = k! sum_{|I| = k} per A_I,

computed by Ryser's inclusion-exclusion truncated at order k, once for
each strong component of the support (see _minor_sums); the
log-derivatives f^(k)(0) follow by forward substitution
through the triangular convolution that links a function with its
logarithm. The identical scheme covers cubical tensors:
PER(I + z A) also has degree at most n in z, so the same tail bound is
used with the axis-0 slice sums supplying lam.

Cost is quasi-polynomial in n (the order m grows like ln n - ln epsilon),
which is kept honest by explicit work caps instead of silent truncation.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import (
    ApproxConfig,
    InadmissibleInputError,
    NormalizationError,
    SizeCapError,
    _is_int,
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
# index bytes of the co-subset plans kept between calls (see _plan)
PLAN_BYTES = 1 << 22


@dataclass(frozen=True)
class TaylorResult:
    """Derivative data and the evaluated Taylor approximation at z = 1.

    g_derivs[k] and f_derivs[k] are the k-th derivatives at 0 of
    g(z) = per(I + z A) and f = ln g; value is T_m(1) = sum f_k / k!,
    and error_bound certifies |ln per(I + A) - value| on the branch
    continued from f(0) = 0. components lists the sizes of the strong
    components that the minor sums factor over (see _components), in
    order of their smallest vertex; it is not part of the JSON.
    """

    g_derivs: tuple[complex, ...]
    f_derivs: tuple[complex, ...]
    order_m: int
    value: complex
    error_bound: float
    components: tuple[int, ...]

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
    and gathers (u + 1)^(d-1) padded entries for each of its K n slice
    sums. The sizes keep those temporaries below BLOCK_ENTRIES and depend
    on (n, p, u) alone, which fixes the block layout. K is at most the
    C(n, u) co-subsets there are: that splits no block differently, and
    sizes the workspace by the blocks that can occur.
    """
    if p == 1:
        return min(math.comb(n, u), max(1, min(1024, BLOCK_ENTRIES // n))), 1
    width = (u + 1) ** p.bit_length()
    npb = min(p**u, max(1, BLOCK_ENTRIES // width))
    return min(math.comb(n, u), max(1, BLOCK_ENTRIES // (n * max(width, npb)))), npb


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


def _checked_walk(n: int, m: int, caps):
    """The blocks of _co_subset_blocks(n, m, caps), each checked once.

    The gathers clip their indices, so a block's rows must lie in
    range(n), and its parents among the columns of the last block of the
    size below; a block outside raises IndexError.
    """
    width = [1] * (m + 1)  # columns of the last block yielded at each size
    for rows, parent in _co_subset_blocks(n, m, caps):
        u, k = rows.shape
        if u and not (
            len(parent) == k
            and 0 <= rows.min()
            and rows.max() < n
            and 0 <= parent.min()
            and parent.max() < width[u - 1]
        ):
            raise IndexError("co-subset block outside the array")
        width[u] = k
        yield rows, parent


# plans by (walk, n, m, caps) with their index bytes, least recently used first
_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _plan(n: int, m: int, caps):
    """The checked blocks of the co-subset walk for (n, m, caps), in walk order.

    The walk depends on its arguments alone, so a plan is built once and
    kept in a process-wide cache; every thread reads the same plan, and
    none writes to it. A plan holds u rows and one parent for each co-subset of size u, in
    one row array and one parent array of the narrowest unsigned dtypes
    that hold them; its blocks are read-only views of the two. The engine
    widens them to np.intp before any arithmetic: under NEP 50 a uint8 row
    times a stride stays uint8 and wraps. The plans kept hold at most
    PLAN_BYTES of indices, and the least recently used go first. A plan
    above that budget is walked afresh on each call. The key holds the
    walk function, so a replaced _co_subset_blocks gets plans of its own.
    """
    key = (_co_subset_blocks, n, m, tuple(caps))
    with _plans_lock:
        if key in _plans:
            _plans.move_to_end(key)
            return _plans[key][0]
    counts = [math.comb(n, u) for u in range(1, m + 1)]
    row_count, parent_count = sum(u * c for u, c in enumerate(counts, 1)), sum(counts)
    row_type, parent_type = np.min_scalar_type(n - 1), np.min_scalar_type(max(caps) - 1)
    size = row_count * row_type.itemsize + parent_count * parent_type.itemsize
    if size > PLAN_BYTES:
        return _checked_walk(n, m, caps)
    all_rows, all_parents = np.empty(row_count, row_type), np.empty(parent_count, parent_type)
    plan, at, parent_at = [], 0, 0
    for rows, parent in _checked_walk(n, m, caps):
        u, k = rows.shape
        rows = _copied(all_rows[at:], rows)
        rows.flags.writeable = False
        at += u * k
        if u:
            parent = _copied(all_parents[parent_at:], parent)
            parent.flags.writeable = False
            parent_at += k
        plan.append((rows, parent))
    plan = tuple(plan)
    with _plans_lock:
        _plans[key] = plan, size
        while sum(kept for _, kept in _plans.values()) > PLAN_BYTES:
            _plans.popitem(last=False)
    return plan


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


# this thread's engine buffers, one flat array per key (see _buffers)
_workspace = threading.local()


def _buffers(key: str, dtype, sizes) -> list[np.ndarray]:
    """Disjoint flat views, of the given sizes, of this thread's buffer `key`.

    The buffer outlives the call and grows only when a call needs more, so
    the engine's block temporaries reuse pages that are already mapped
    instead of fresh ones. A request overwrites the views that the last
    request for the same key handed out, so the engine is not re-entrant
    within one thread.
    """
    buf = getattr(_workspace, key, None)
    if buf is None or len(buf) < sum(sizes):
        buf = np.empty(sum(sizes), dtype)
        setattr(_workspace, key, buf)
    views, at = [], 0
    for size in sizes:
        views.append(buf[at : at + size])
        at += size
    return views


def _shaped(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a flat workspace view, C-ordered."""
    return flat[: math.prod(shape)].reshape(shape)


def _copied(flat: np.ndarray, block: np.ndarray) -> np.ndarray:
    """block copied, cast to flat's dtype, into the first entries of flat; a view."""
    view = _shaped(flat, *block.shape)
    view[...] = block
    return view


def _pattern_weights(hits: np.ndarray, bufs) -> np.ndarray:
    """w[j] = tensor product over the axes t of (-hits[t, j, q] for q in U, then 1).

    hits[t, j, q] is 1 when pattern j removes row q of U from axis t. Entry
    (q_0, ..., q_{d-2}) of w[j], in base u + 1, weighs the padded array's
    entry at those rows of U, with q_t = u for the slot n. The factors are
    multiplied into the two flat buffers bufs in turn.
    """
    axes, npat, u = hits.shape
    f = np.ones((axes, npat, u + 1))
    f[:, :, :u] = -hits
    w = f[-1]
    for t, ft in enumerate(f[-2::-1]):
        out = _shaped(bufs[t % 2], npat, u + 1, w.shape[1])
        w = np.multiply(ft[:, :, None], w[:, None, :], out=out).reshape(npat, -1)
    return w


def _slice_sums(w: np.ndarray, entries: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r[q, j, k] = sum of a[i, j_0, ..., j_{d-2}] over j_t in S_t, for the q-th row i.

    S_t drops the rows of co-subset k that pattern j removes from axis t.
    entries[q, :, k] are the padded array's entries of row i at every
    tuple of rows of U and slot n. Writing [j_t in S_t] as 1 - [j_t in T_t]
    makes r those entries weighed by _pattern_weights: one real product
    for every pattern, written into out.
    """
    np.matmul(w, entries.view(np.float64), out=out.view(np.float64))
    return out


def _matrix_terms(a: np.ndarray, m: int, sizes):
    """(u, lead, r) for each co-subset block of a matrix; see _minor_sums.

    A child's row sums are its parent's minus one column,
    r(U + {j}) = r(U) - a[:, j], so each block below order m costs one
    column gather per co-subset. The lead needs r only at the rows of U,
    2u gathered entries; it is formed the same way at every order, which
    keeps lower orders a bit-exact prefix of higher ones. Below order m, r
    is the carried row sums themselves with the rows of U zeroed while the
    consumer holds them, and restored before the children read them. Every
    block temporary is a view of this thread's workspace.
    """
    n, caps = len(a), [k for k, _ in sizes]
    wide = max(caps)
    # a gathered column, the lead's two gathers and product, then the row
    # sums carried at sizes 1..m-1
    regions = [n * wide, m * wide, m * wide, wide] + [n * k for k in caps[1:m]]
    column, kept, removed, product, *levels = _buffers("terms", np.complex128, regions)
    wide_rows, index, wide_parent = _buffers("index", np.intp, [m * wide, m * wide, wide])
    columns = np.arange(wide)
    # row sums (n x K) of the last block yielded at each size below m
    carry = [a.sum(axis=1)[:, None]] + [None] * m
    for rows, parent in _plan(n, m, caps):
        u, k = rows.shape
        if not u:
            yield 0, np.ones(1), carry[0]
            continue
        # mode="raise" would copy through a temporary; _plan checked the block
        rows, parent = _copied(wide_rows, rows), _copied(wide_parent, parent)
        up, last = carry[u - 1], rows[-1]
        at = _shaped(index, u, k)
        np.multiply(rows, up.shape[1], out=at)
        at += parent
        lead = up.take(at, out=_shaped(kept, u, k), mode="clip")
        np.multiply(rows, n, out=at)
        at += last
        lead -= a.take(at, out=_shaped(removed, u, k), mode="clip")
        lead = np.multiply.reduce(lead, axis=0, out=product[:k])
        if u % 2:
            np.negative(lead, out=lead)
        if u == m:
            yield u, lead, None
            continue
        r = carry[u] = up.take(parent, axis=1, out=_shaped(levels[u - 1], n, k), mode="clip")
        r -= a.take(last, axis=1, out=_shaped(column, n, k), mode="clip")
        # flat positions of the rows of U in r; kept is free once the lead is formed
        np.multiply(rows, k, out=at)
        at += columns[:k]
        hidden = r.take(at, out=_shaped(kept, u, k), mode="clip")
        r.put(at, 0.0, mode="clip")
        yield u, lead, r
        r.put(at, hidden, mode="clip")


def _tensor_terms(arr: np.ndarray, m: int, sizes):
    """(u, lead, r) for each (co-subset block, pattern block) of a d >= 3 tensor.

    A removed index's slice depends on the sets removed on the other axes,
    so the slice sums come from a padded array rather than from the
    parent's. Its slot n on each permutation axis holds the sum over that
    axis; padding the axes one after another also fills the mixed partial
    sums. A co-subset block gathers the padded entries at the rows of U
    and slot n once, for the rows of U and, below order m, for all n rows;
    each pattern block then weighs them (_slice_sums). Every block
    temporary is a view of this thread's workspace.
    """
    d, n = arr.ndim, arr.shape[0]
    ext = arr
    for t in range(1, d):
        ext = np.concatenate((ext, ext.sum(axis=t, keepdims=True)), axis=t)
    ext, stride = ext.ravel(), (n + 1) ** (d - 1)
    # entries gathered, and slice sums formed, for each row of a block of each size
    gather = [k * (u + 1) ** (d - 1) for u, (k, _) in enumerate(sizes)]
    slices = [k * npb for k, npb in sizes]
    lead_in, all_in, summed, product = _buffers(
        "terms", np.complex128, [m * max(gather), n * max(gather), n * max(slices), max(slices)]
    )
    caps = [cap for cap, _ in sizes]
    wide_rows, lead_at, all_at = _buffers(
        "index", np.intp, [m * max(caps), m * max(gather), n * max(gather)]
    )
    weight_size = max(npb * (u + 1) ** (d - 1) for u, (_, npb) in enumerate(sizes))
    weights = _buffers("weights", np.float64, [weight_size] * 2)
    row_offsets = np.arange(n)[:, None, None] * stride
    for rows, _ in _plan(n, m, caps):
        # mode="raise" would copy through a temporary; _plan checked the block
        rows = _copied(wide_rows, rows)
        u, k = rows.shape
        # offsets ((u + 1)^(d-1) x K) of the rows of U and slot n on every axis
        ends, slots = np.concatenate((rows, np.full((1, k), n))), np.zeros((1, k), np.intp)
        for _ in range(d - 1):
            slots = (slots[:, None] * (n + 1) + ends).reshape(-1, k)
        width = len(slots)
        at = np.add((rows * stride)[:, None], slots, out=_shaped(lead_at, u, width, k))
        lead_entries = ext.take(at, out=_shaped(lead_in, u, width, k), mode="clip")
        if u < m:
            at = np.add(row_offsets, slots, out=_shaped(all_at, n, width, k))
            all_entries = ext.take(at, out=_shaped(all_in, n, width, k), mode="clip")
        for vals in _pattern_blocks((1 << (d - 1)) - 1, u, sizes[u][1]):
            hits = (vals >> np.arange(d - 1)[:, None, None]) & 1
            w = _pattern_weights(hits, weights)
            npat = len(w)
            sign = np.where(hits.sum(axis=(0, 2)) % 2, -1.0, 1.0)[:, None]
            lead = _slice_sums(w, lead_entries, _shaped(summed, u, npat, k))
            lead = np.multiply.reduce(lead, axis=0, out=_shaped(product, npat, k))
            lead *= sign
            r = None
            if u < m:
                r = _slice_sums(w, all_entries, _shaped(summed, n, npat, k))
                r[rows, :, np.arange(k)] = 0.0
                r = r.reshape(n, -1)
            yield u, lead.ravel(), r


def _ryser_sums(arr: np.ndarray, m: int) -> list[complex]:
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
    prefix tree (_co_subset_blocks, read from a cached plan, see _plan),
    and the step picked by d yields each block's signed lead products and,
    below order m, its slice sums (n x tuples) with the rows of U zeroed,
    valid until the step resumes. Order m needs only the lead, so
    its tuples, the most numerous, cost O(u (u + 1)^(d-1)) whatever n is.
    The block layout depends on (n, d, u) alone, and the block partials are
    folded in walk order, so repeated calls give bit-identical results.

    Every block temporary, the recurrence's included, is a view of a
    per-thread workspace sized from _block_sizes (see _buffers), and the
    walk's indices come from its plan, so after the first call of a size
    the loop allocates nothing large.
    """
    d, n = arr.ndim, arr.shape[0]
    sizes = [_block_sizes(n, (1 << (d - 1)) - 1, u) for u in range(m + 1)]
    terms = _matrix_terms(arr, m, sizes) if d == 2 else _tensor_terms(arr, m, sizes)
    # e_0..e_(m-u) and one recurrence step for the widest block of each size u
    widths = [(m - u, k * npb) for u, (k, npb) in enumerate(sizes)]
    regions = [max((j + 1) * w for j, w in widths), max(j * w for j, w in widths)]
    powers, step = _buffers("recurrence", np.complex128, regions)
    sums = np.zeros(m + 1, dtype=np.complex128)
    for u, lead, r in terms:
        e = _shaped(powers, m - u + 1, len(lead))
        lo, hi = e[:-1], e[1:]
        e[0], hi[...] = 1.0, 0.0
        if u == m - 1 and len(lead) > 1:
            # e_1 alone: the recurrence's running sum, added row by row as
            # numpy reduces a leading axis (a lone column would sum pairwise)
            np.add.reduce(r, axis=0, out=hi[0])
        elif u < m:
            t = _shaped(step, m - u, len(lead))
            for ri in r:
                hi += np.multiply(ri, lo, out=t)
        e *= lead
        sums[u:] += e.sum(axis=1)
    return [complex(c) for c in sums]


def _reach(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of the digraph adj[i, j], as bools.

    Squares the 0/1 matrix of I + adj until it stops changing, at most
    log2(n) products; each sums non-negative terms, so > 0 reads every
    path exactly.
    """
    r = (adj | np.eye(len(adj), dtype=bool)).astype(np.float32)
    while True:
        s = (r @ r > 0).astype(np.float32)
        if np.array_equal(s, r):
            return s > 0
        r = s


def _strong_components(adj: np.ndarray) -> np.ndarray:
    """Strong-component label of each vertex of the digraph adj[i, j].

    Labels number the components in order of their smallest vertex, which
    is the first vertex that each vertex reaches and is reached from.
    """
    reach = _reach(adj)
    first = (reach & reach.T).argmax(axis=1)
    return (np.cumsum(first == np.arange(len(adj))) - 1)[first]


def _digraph(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = True
    return adj


def _components(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The support's strong components: (array, vertex groups).

    G_t is the digraph with an arc i -> j_t for each nonzero entry
    a[i, j_1, ..., j_{d-1}]. Every cycle of the t-th permutation in a term
    of PER(I + zA) is a cycle of G_t, so an entry whose j_t lies outside
    the strong component of i in G_t is on no term. For d >= 3 such
    entries are zeroed until none is left (pruning), which may cut cycles
    of the other G_t. The groups are then the strong components of the
    union of the G_t, in order of their smallest vertex, and PER(I + zA)
    is the product of PER(I + zA_C) over the principal subarrays A_C of
    the returned array. When there is one group, the array is arr itself.
    """
    d, n = arr.ndim, arr.shape[0]
    idx = np.nonzero(arr)
    keep = np.ones(len(idx[0]), dtype=bool)
    while d > 2:
        kept = keep.copy()
        for heads in idx[1:]:
            # i -> j_t is an arc, so they share a component when j_t reaches i
            kept &= _reach(_digraph(n, idx[0][keep], heads[keep]))[heads, idx[0]]
        if kept.sum() == keep.sum():
            break
        keep = kept
    tails = np.tile(idx[0][keep], d - 1)
    label = _strong_components(_digraph(n, tails, np.concatenate([h[keep] for h in idx[1:]])))
    if not label.any():
        return arr, [np.arange(n)]
    pruned = np.zeros_like(arr)
    at = tuple(i[keep] for i in idx)
    pruned[at] = arr[at]
    return pruned, [np.flatnonzero(label == c) for c in range(label.max() + 1)]


def _minor_sums(arr: np.ndarray, m: int, work_cap: int):
    """(c, sizes): c_k = sum over k-subsets I of PER A_I, for k = 0..m and any d >= 2.

    PER(I + zA) factors over the strong components of its support
    (_components), so _ryser_sums runs once per component C at order
    min(m, n_C), and the cap is charged for that work. The component
    polynomials are multiplied in component order, each coefficient
    summed in a fixed order, which keeps lower orders a bit-exact prefix
    of higher ones. A single component runs _ryser_sums on arr itself,
    whose sums keep a -0.0 that the product would turn into +0.0. The
    sizes n_C come in order of each component's smallest vertex.
    """
    d = arr.ndim
    reduced, groups = _components(arr)
    sizes = tuple(len(g) for g in groups)
    orders = [min(m, size) for size in sizes]
    work = sum(minor_sum_work(size, d, k) for size, k in zip(sizes, orders))
    if work > work_cap:
        raise SizeCapError(f"minor-sum engine needs ~{work} ops, cap is {work_cap}")
    if len(groups) == 1:
        return _ryser_sums(arr, m), sizes
    sums = [complex(1.0)] + [complex(0.0)] * m
    for g, k in zip(groups, orders):
        c = _ryser_sums(reduced[np.ix_(*(g,) * d)], k)
        sums = [sum(c[j] * sums[i - j] for j in range(min(i, k) + 1)) for i in range(m + 1)]
    return sums, sizes


def _nonempty_tensor(a) -> np.ndarray:
    """as_tensor for the Taylor path, which expands around I and so needs n >= 1."""
    arr = as_tensor(a)
    if arr.shape[0] == 0:
        raise ValueError(f"empty array of shape {arr.shape}: n must be positive")
    return arr


def perm_poly_derivs(a, m: int, threads: int = 1, work_cap: int = WORK_CAP) -> list[complex]:
    """Derivatives g^(k)(0) of g(z) = per(I + z A) for k = 0..m.

    Each is k! times the sum of permanents of the k x k principal
    subarrays; A may be a matrix or a cubical tensor (PER of principal
    subtensors). m must be an int in [0, n], the polynomial's degree.
    `threads` is accepted for compatibility and has no effect.
    """
    if not _is_int(m):
        raise ValueError(f"order m must be an int, got {m!r}")
    arr = _nonempty_tensor(a)
    n = arr.shape[0]
    if not 0 <= m <= n:
        raise ValueError(f"order m = {m} must lie in [0, {n}], the polynomial degree")
    sums, _ = _minor_sums(arr, m, work_cap)
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
    ln per(I) = 0 along z in [0, 1]. The input must be admissible
    (InadmissibleInputError otherwise), and its measured effective lambda
    must not exceed cfg.lam unless that is None; the measured lambda sets
    both the order and the certified bound (tighter at no cost).
    An order above MAX_ORDER raises SizeCapError before any minor sum.
    `threads` is accepted for compatibility and has no effect.
    """
    arr = _nonempty_tensor(a)
    report = require_admissible(arr)
    if cfg.lam is not None and report.effective_lambda > cfg.lam:
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
    sums, sizes = _minor_sums(arr, m_g, work_cap)
    g = [math.factorial(k) * sums[k] for k in range(m_g + 1)] + [complex(0.0)] * (m - m_g)
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
        components=sizes,
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
    a small modulus can lie far above the true one (ROADMAP item I).
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
        lam = check_dominance_tensor(arr).effective_lambda
        radius = 0.99 / lam if lam > 0 else 1.0
    sums, _ = _minor_sums(arr, arr.shape[0], work_cap)
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
