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
# most columns in one matrix block
BLOCK_COLUMNS = 2048
# numpy's ufunc buffer size, in items, inside the engine
UFUNC_BUFFER = 1024
# bytes of the compiled walk programs kept between calls (see _program)
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
    below order m - 1, with the elementary symmetric recurrence. At order
    m - 1 >= 1 it carries no row sums and gathers its u lead factors and
    T(U), which give e_1: 2u + 2. At order m only the rows of U are
    needed: 2u. A tensor tuple gathers (u + 1)^(d-1) entries for each row
    of U and, below order m, for each of the n rows, plus the O(n (m - u))
    recurrence.
    """
    p = (1 << (d - 1)) - 1
    total = (p + 1) * n**d
    for u in range(m + 1):
        if d == 2 and u == m:
            per_tuple = 2 * u
        elif d == 2 and u == m - 1 >= 1:
            per_tuple = 2 * u + 2
        elif d == 2:
            per_tuple = n * (m - u + 1)
        else:
            per_tuple = u * (u + 1) ** (d - 1)
            if u < m:
                per_tuple += n * ((u + 1) ** (d - 1) + m - u)
        total += math.comb(n, u) * p**u * per_tuple
    return total


def _block_budget(n: int, p: int, u: int) -> tuple[int, int]:
    """Most columns and most patterns in one block at co-subset size u.

    A matrix block carries n row sums in each of its columns, at most
    BLOCK_COLUMNS of them. A tensor block meets P patterns and gathers
    (u + 1)^(d-1) padded entries for each of its n slice sums per column.
    The sizes keep those temporaries below BLOCK_ENTRIES and depend on
    (n, p, u) alone.
    """
    if p == 1:
        return max(1, min(BLOCK_COLUMNS, BLOCK_ENTRIES // n)), 1
    width = (u + 1) ** p.bit_length()
    npb = min(p**u, max(1, BLOCK_ENTRIES // width))
    return max(1, BLOCK_ENTRIES // (n * max(width, npb))), npb


def _block_sizes(n: int, p: int, u: int) -> tuple[int, int]:
    """Most co-subsets and most patterns in one block at co-subset size u.

    K = min(C(n, u), budget) with the column budget of _block_budget, so
    a matrix block has K_u = min(C(n, u), BLOCK_COLUMNS, BLOCK_ENTRIES // n)
    columns. The sizes depend on (n, p, u) alone, which fixes the block
    layout. K is at most the C(n, u) co-subsets there are: that splits no
    block differently, and sizes the workspace by the blocks that can occur.
    """
    columns, npb = _block_budget(n, p, u)
    return min(math.comb(n, u), columns), npb


def _batch_limit(n: int, p: int, m: int) -> int:
    """Most arrays of size n that one engine pass takes at order m.

    A pass over B arrays widens each block to B K columns, so B is the
    least, over the sizes u <= m, of the column budget over K_u.
    """
    return min(_block_budget(n, p, u)[0] // _block_sizes(n, p, u)[0] for u in range(m + 1))


def _co_subset_blocks(n: int, m: int, caps):
    """Blocks of the co-subsets U of range(n) with |U| <= m, depth first.

    Yields (rows, parent): column k of rows (u x K) lists the k-th of
    K <= caps[u] co-subsets of size u in increasing order, and extends
    column parent[k] of the last block yielded at size u - 1 by rows[-1, k].
    Each block is followed by the blocks of its children U + {j}, j > max U,
    so every size comes in lexicographic order, and the layout depends on
    n and caps alone. rows has the narrowest unsigned dtype that holds n,
    which keeps the walk's copies small; arithmetic on it widens it first,
    since under NEP 50 a uint8 row times a stride stays uint8 and wraps.
    """
    row_type = np.min_scalar_type(n)

    def children(rows):
        u, k = rows.shape
        # column i has a child for each j in max U + 1 .. n - 1; in the list
        # of all children they end at ends[i], so child t appends n + t - ends[i]
        count = n - 1 - rows[-1].astype(np.intp) if u else np.full(k, n)
        parent = np.arange(k).repeat(count)
        ends = count.cumsum()
        last = (np.arange(n, n + ends[-1]) - ends.take(parent)).astype(row_type)
        cap = caps[u + 1]
        for s in range(0, len(parent), cap):
            par = parent[s : s + cap]
            block = np.concatenate((rows.take(par, axis=1), last[None, s : s + cap]))
            yield block, par
            if u + 1 < m:
                yield from children(block)

    root = np.zeros((0, 1), dtype=row_type)
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
    low, high = np.minimum.reduce, np.maximum.reduce
    for rows, parent in _co_subset_blocks(n, m, caps):
        u, k = rows.shape
        if u and not (
            len(parent) == k
            and 0 <= low(rows, None)
            and high(rows, None) < n
            and 0 <= low(parent)
            and high(parent) < width[u - 1]
        ):
            raise IndexError("co-subset block outside the array")
        width[u] = k
        yield rows, parent


# programs by (walk, d, n, m, block sizes, B) with their bytes, least recently used first
_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _program(d: int, n: int, m: int, sizes, nb: int):
    """The engine's compiled walk for a stack of B arrays of shape (n,) * d, at order m.

    The walk, and every position that its gathers read, depend on these
    arguments alone, so _matrix_program or _tensor_program compiles them
    once from the checked walk and a process-wide cache keeps the program;
    every thread reads the same program, and none writes to it. A kept
    program stores its positions in the narrowest unsigned dtype that
    holds them all, and every array in it is read-only. The programs kept
    hold at most PLAN_BYTES, and the least recently used go first. A
    program above that budget, whose size _program_bytes gives before any
    is built, is never held whole: it is compiled block by block inside
    the call, with np.intp positions. The key holds the walk function, so
    a replaced _co_subset_blocks gets programs of its own.

    The gathers clip their indices, so positions are checked before any
    use. Every block of the walk is checked (_checked_walk), and a kept
    program's positions once more when they are stored, each against the
    size of the array it indexes (_stored). A program compiled inside the
    call skips that second pass, which costs about as much as the gathers
    on small blocks: its positions come from the checked rows and parents
    by the same sums of non-negative multiples, which keep them within
    their arrays.
    """
    key = (_co_subset_blocks, d, n, m, tuple(sizes), nb)
    with _plans_lock:
        if key in _plans:
            _plans.move_to_end(key)
            return _plans[key][0]
    size, dtype = _program_bytes(d, n, m, sizes, nb)
    keep = size <= PLAN_BYTES
    if d == 2:
        program = _matrix_program(n, m, [cap for cap, _ in sizes], nb, dtype, keep)
    else:
        program = _tensor_program(d, n, m, sizes, nb, dtype, keep)
    if not keep:
        return program
    program = tuple(program)
    with _plans_lock:
        _plans[key] = program, size
        while sum(kept for _, kept in _plans.values()) > PLAN_BYTES:
            _plans.popitem(last=False)
    return program


def _program_bytes(d: int, n: int, m: int, sizes, nb: int) -> tuple[int, np.dtype]:
    """(bytes, position dtype) of the program for these arguments; see _program.

    The dtype holds every position below the size of the largest arrays
    indexed: the carried row sums and a matrix with its sum row, or the
    padded tensors. The bytes count the positions of every block, which
    the C(n, u) co-subsets of each size fix, and a tensor's pattern
    weights and signs once for each size.
    """
    if d == 2:
        dtype = np.min_scalar_type((n + 1) * nb * max(n, *(cap for cap, _ in sizes)) - 1)
        positions = sum(nb * math.comb(n, u) * _matrix_rows(u, m) for u in range(1, m + 1))
        return positions * dtype.itemsize, dtype
    p, widths = (1 << (d - 1)) - 1, [(u + 1) ** (d - 1) for u in range(m + 1)]
    dtype = np.min_scalar_type(nb * n * (n + 1) ** (d - 1) - 1)
    # lead_at, all_at below order m, and rows
    positions = sum(
        math.comb(n, u) * (nb * widths[u] * (u + n * (u < m)) + u) for u in range(m + 1)
    )
    weights = sum(p**u * (widths[u] + 1) for u in range(m + 1))
    return positions * dtype.itemsize + weights * 8, dtype


def _stored(pos: np.ndarray, limits, dtype) -> np.ndarray:
    """The np.intp positions pos, as a kept program stores them: checked, narrowed, read-only.

    Row pos[i] indexes an array of limits[i] entries. The gathers clip
    their indices, so a position outside its array would pass silently;
    it raises IndexError here instead, once for each kept program. Viewed
    unsigned, a negative position is one far too large.
    """
    if pos.size:
        top = pos.view(np.uintp).reshape(len(pos), -1).max(axis=1).tolist()
        if any(t >= limit for t, limit in zip(top, limits)):
            raise IndexError("compiled position outside its array")
    pos = pos.astype(dtype)
    pos.flags.writeable = False
    return pos


def _matrix_rows(u: int, m: int) -> int:
    """Rows of positions in a matrix step at size u: up, at_r, at_a, then
    cut_r at order m > 1, or col and zero below order m - 1."""
    return 2 + u + (u < m) + (1 < u == m) + (u < m - 1) * (u + 1)


def _matrix_program(n: int, m: int, caps, nb: int, dtype, keep: bool):
    """The steps of _matrix_terms for the walk's blocks below the root; see _program.

    A step (u, K, up, at_r, cut_r, at_a, col, zero) holds, for the B K
    columns of a block:
    - up, the parent's columns in the factors and row sums kept at u - 1;
    - at_r, the flat position of the new row's r_j in the row sums carried
      at u - 1, or at order m > 1 in the grandparent's, at m - 2;
    - at order m > 1, cut_r, the parent's last column at the new row in
      a_t, the transposed array with its sum row; else None;
    - at_a, row n (below order m) and the rows of U in the new column, in a_t;
    - below order m - 1, col, the new column of a, and zero, the flat
      positions of the rows of U in the block's row sums; else None.
    They are the rows of one array. A program compiled inside the call
    writes them into this thread's workspace, where each step's positions
    overwrite the last step's.
    """
    batch = np.arange(nb)[:, None]

    def offsets(at, width):
        # at + b width for every matrix b: the block's B x K positions of the
        # per-matrix positions at
        return at if nb == 1 else at + batch * width

    if not keep:
        most = max(_matrix_rows(u, m) * nb * caps[u] for u in range(m + 1))
        (space,) = _buffers("positions", np.intp, [most])
    a_size = (n + 1) * nb * n
    # columns of the factors and row sums kept for the last block of each size
    width, grand = [nb] + [0] * m, None
    for rows, parent in _checked_walk(n, m, caps):
        u, k = rows.shape
        if not u:
            continue
        c, top, below = nb * k, int(u == m), u < m - 1
        rows, lead = rows.astype(np.intp), u + 1 - top
        last = rows[-1]
        shape = (_matrix_rows(u, m), nb, k)
        pos = np.empty(shape, np.intp) if keep else _shaped(space, *shape)
        pos[0] = offsets(parent, width[u - 1] // nb)
        if u == m > 1:
            src = width[u - 2]
            np.multiply(last, src, out=pos[1])
            pos[1] += offsets(grand[parent], src // nb)
            np.multiply(rows[-2], n + 1, out=pos[-1])
            pos[-1] += offsets(last, (n + 1) * n)
        else:
            src = width[u - 1]
            np.multiply(last, src, out=pos[1])
            pos[1] += pos[0]
        cut = offsets(last * (n + 1), (n + 1) * n)
        np.add(rows[:, None], cut, out=pos[3 - top : 2 + lead])
        if not top:
            np.add(cut, n, out=pos[2])
        if below:
            pos[2 + lead] = offsets(last, n)
            np.multiply(rows[:, None], c, out=pos[3 + lead :])
            pos[3 + lead :] += offsets(np.arange(k), k)
        if keep:
            limits = [width[u - 1], (n + 1) * src] + [a_size] * (lead + (1 < u == m))
            if below:
                limits += [nb * n] + [(n + 1) * c] * u
            pos = _stored(pos, limits, dtype)
        pos = pos.reshape(len(pos), c)
        width[u] = c
        if u == m - 1:
            grand = parent
        cut_r = pos[-1] if u == m > 1 else None
        col, zero = (pos[2 + lead], pos[3 + lead :]) if below else (None, None)
        yield u, k, pos[0], pos[1], cut_r, pos[2 : 2 + lead], col, zero


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


def _patterns(p: int, u: int, step: int, bufs):
    """(w, sign) for each block of the patterns of a co-subset of size u.

    w is _pattern_weights, in the flat buffers bufs or, with bufs None, in
    read-only arrays of its own; sign (P x 1) is (-1)^(sum_t |T_t|).
    """
    for vals in _pattern_blocks(p, u, step):
        hits = (vals >> np.arange(p.bit_length())[:, None, None]) & 1
        w = _pattern_weights(hits, bufs)
        sign = np.where(hits.sum(axis=(0, 2)) % 2, -1.0, 1.0)[:, None]
        if bufs is None:
            w, sign = w.copy(), sign.copy()
            w.flags.writeable = sign.flags.writeable = False
        yield w, sign


def _tensor_program(d: int, n: int, m: int, sizes, nb: int, dtype, keep: bool):
    """The steps of _tensor_terms for the walk's blocks; see _program.

    A step (u, K, lead_at, all_at, rows, patterns) holds the positions, in
    the padded stack, of the entries that a block gathers at the rows of U
    and slot n: lead_at (u x B x (u + 1)^(d-1) x K) for the rows of U and,
    below order m, all_at (n x B x (u + 1)^(d-1) x K) for all n rows, else
    None; then the rows of U, which the slice sums zero, and the (w, sign)
    of each pattern block (_patterns). A kept program forms the patterns
    of each size once and shares them among its blocks; one compiled
    inside the call forms them for each block, in this thread's workspace.
    """
    p, stride = (1 << (d - 1)) - 1, (n + 1) ** (d - 1)
    size = nb * n * stride
    row_offsets = np.arange(n)[:, None] * stride
    batch_offsets = np.arange(nb)[:, None, None] * (n * stride)
    if not keep:
        weight_size = max(npb * (u + 1) ** (d - 1) for u, (_, npb) in enumerate(sizes))
        weights = _buffers("weights", np.float64, [weight_size] * 2)
    kept = {}
    for rows, _ in _checked_walk(n, m, [cap for cap, _ in sizes]):
        u, k = rows.shape
        rows = rows.astype(np.intp)
        # offsets ((u + 1)^(d-1) x K) of the rows of U and slot n on every axis
        ends, slots = np.concatenate((rows, np.full((1, k), n))), np.zeros((1, k), np.intp)
        for _ in range(d - 1):
            slots = (slots[:, None] * (n + 1) + ends).reshape(-1, k)
        # the rows of U, then below order m all n rows
        first = rows * stride
        if u < m:
            first = np.concatenate((first, np.broadcast_to(row_offsets, (n, k))))
        at = first[:, None, None] + slots + batch_offsets
        if keep:
            at, rows = _stored(at, [size] * len(at), dtype), _stored(rows, [n] * u, dtype)
            if u not in kept:
                kept[u] = tuple(_patterns(p, u, sizes[u][1], None))
            patterns = kept[u]
        else:
            patterns = _patterns(p, u, sizes[u][1], weights)
        yield u, k, at[:u], at[u:] if u < m else None, rows, patterns


# this thread's engine buffers, one flat array per key (see _buffers)
_workspace = threading.local()


def _buffers(key: str, dtype, sizes) -> list[np.ndarray]:
    """Disjoint flat views, of the given sizes, of this thread's buffer `key`.

    The buffer outlives the call and grows only when a call needs more, so
    the engine's block temporaries reuse pages that are already mapped
    instead of fresh ones. The old buffer is let go before the larger one
    is taken, so the two never add up in the peak. A request overwrites
    the views that the last request for the same key handed out, so the
    engine is not re-entrant within one thread.
    """
    buf = getattr(_workspace, key, None)
    if buf is None or len(buf) < sum(sizes):
        buf = None
        setattr(_workspace, key, None)
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


def _pattern_weights(hits: np.ndarray, bufs) -> np.ndarray:
    """w[j] = tensor product over the axes t of (-hits[t, j, q] for q in U, then 1).

    hits[t, j, q] is 1 when pattern j removes row q of U from axis t. Entry
    (q_0, ..., q_{d-2}) of w[j], in base u + 1, weighs the padded array's
    entry at those rows of U, with q_t = u for the slot n. The factors are
    multiplied into the two flat buffers bufs in turn, or, with bufs None,
    into fresh arrays.
    """
    axes, npat, u = hits.shape
    f = np.ones((axes, npat, u + 1))
    f[:, :, :u] = -hits
    w = f[-1]
    for t, ft in enumerate(f[-2::-1]):
        out = None if bufs is None else _shaped(bufs[t % 2], npat, u + 1, w.shape[1])
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


def _matrix_terms(stack: np.ndarray, m: int, sizes):
    """(u, lead, r, e1) for each co-subset block of a stack of B matrices; see _ryser_stack.

    Column b K + j of a block is co-subset j of matrix b. The matrices sit
    side by side in a, matrix b in columns b n .. b n + n - 1, so each
    gather serves all B at offsets b n (b K in a carried array). Row n of
    a holds the column sums, so its row sum over the columns not in U is
    T(U), the sum of all the row sums r_i(U).

    A child's row sums are its parent's minus one column,
    r(U + {j}) = r(U) - a[:, j]. The lead needs them only at the rows of
    U: the parent's lead factors, and r_j(U) for the new row. So a block
    keeps its factors, T(U) with r_i(U) for i in U, and takes T(U + {j})
    and the old rows' factors from them; only r_j(U) comes from the
    carried row sums. Those are carried at sizes 0..m-2:

    - e_1, the sum of r_i(U) over i not in U, is T(U) minus the lead's
      factors, before their product, in row order. Every u >= 1 forms e_1
      this way, so order m - 1 yields its lead and e_1 alone (r is None).
      The root yields its row sums instead (e1 is None).
    - Order m takes r_j from the grandparent's row sums less the parent's
      last column, the subtraction that row sums carried at m - 1 would make.

    Every factor is thus the chain of subtractions that carried row sums
    make, so a block forms lead and e_1 the same way at every order, which
    keeps lower orders a bit-exact prefix of higher ones. Below order
    m - 1, r is the carried row sums with the rows of U zeroed; they stay
    zeroed, since no later block reads them there. Every position comes
    from the compiled program (_matrix_program), so a block only gathers,
    subtracts and multiplies. The complex block temporaries (factors, row
    sums, gathered columns, lead and e_1) are views of this thread's
    workspace, which spares them the page faults of fresh pages.
    """
    nb, n = stack.shape[:2]
    caps = [k for k, _ in sizes]
    wide = nb * max(caps)
    a = stack.transpose(1, 0, 2).reshape(n, nb * n)
    a = np.concatenate((a, a.sum(axis=0)[None]))
    # entry (i, c) of a at c (n + 1) + i, so a gather adds the rows to one offset
    a_t = a.T.ravel()
    # the top order's factors and the entries removed from factors, which
    # also hold gathered columns for the row sums; the lead and e_1; the
    # factors kept at each size below m, and the row sums carried at sizes
    # 1..m-2
    carried = caps[1 : max(m - 1, 1)]
    regions = [2 * m * wide, wide, wide]
    regions += [(u + 1) * nb * k for u, k in enumerate(caps[1:m], 1)]
    regions += [(n + 1) * nb * k for k in carried]
    scratch, product, first, *held = _buffers("terms", np.complex128, regions)
    kept, removed = scratch[: m * wide], scratch[m * wide :]
    held, levels = held[: max(m - 1, 0)], held[max(m - 1, 0) :]
    # row sums ((n + 1) x B K) and factors of the last block at each size;
    # row n of the row sums, and row 0 of the factors, is T
    carry = [a.reshape(n + 1, nb, n).sum(axis=2)] + [None] * m
    kept_factors = [carry[0][n:]] + [None] * m
    yield 0, np.ones(nb), carry[0][:n], None
    # mode="raise" would copy through a temporary; see _program for the checks
    for u, k, up, at_r, cut_r, at_a, col, zero in _program(2, n, m, sizes, nb):
        c, top = nb * k, int(u == m)
        # T and the old rows' factors from the parent's; order m needs no T
        factors = _shaped(kept if top else held[u - 1], len(at_a), c)
        kept_factors[u - 1][top:].take(up, axis=1, out=factors[:-1], mode="clip")
        # the new row's r_j from the parent's row sums; order m has none
        # carried, so it starts from the grandparent's, less the parent's column
        src = carry[u - 2] if cut_r is not None else carry[u - 1]
        src.take(at_r, out=factors[-1], mode="clip")
        if cut_r is not None:
            factors[-1] -= a_t.take(cut_r, out=_shaped(removed, c), mode="clip")
        factors -= a_t.take(at_a, out=_shaped(removed, len(at_a), c), mode="clip")
        # the last u rows of factors are r_i(U), i in U
        lead = np.multiply.reduce(factors[-u:], axis=0, out=product[:c])
        if u % 2:
            np.negative(lead, out=lead)
        if top:
            yield u, lead, None, None
            continue
        # subtract never sums pairwise, so one column gives the bits that many do
        e1 = np.subtract.reduce(factors, axis=0, out=first[:c])
        kept_factors[u] = factors
        if col is None:
            yield u, lead, None, e1
            continue
        flat = levels[u - 1][: (n + 1) * c]
        r = carry[u] = src.take(up, axis=1, out=flat.reshape(n + 1, c), mode="clip")
        # column j of a, as many rows at a time as scratch holds
        step = len(scratch) // c
        for i in range(0, n + 1, step):
            part = a[i : i + step]
            part = part.take(col, axis=1, out=_shaped(scratch, len(part), c), mode="clip")
            r[i : i + step] -= part
        flat[zero] = 0.0
        yield u, lead, r[:n], e1


def _tensor_terms(stack: np.ndarray, m: int, sizes):
    """(u, lead, r, None) for each (co-subset block, pattern block) of a stack of B tensors.

    A removed index's slice depends on the sets removed on the other axes,
    so the slice sums come from a padded array rather than from the
    parent's. Its slot n on each permutation axis holds the sum over that
    axis; padding the axes one after another also fills the mixed partial
    sums. A co-subset block gathers the padded entries at the rows of U
    and slot n once, for the rows of U and, below order m, for all n rows;
    each pattern block then weighs them (_slice_sums). Tensor b's padded
    entries sit at offset b n (n + 1)^(d-1), and its columns come first
    in lead and r: column (b P + q) K + j is pattern q of co-subset j of
    tensor b. The positions and the pattern weights come from the compiled
    program (_tensor_program). The gathered entries, slice sums and lead
    products are views of this thread's workspace, which spares them the
    page faults of fresh pages.
    """
    nb, d, n = len(stack), stack.ndim - 1, stack.shape[1]
    ext = stack
    for t in range(2, d + 1):
        ext = np.concatenate((ext, ext.sum(axis=t, keepdims=True)), axis=t)
    ext = ext.ravel()
    # entries gathered, and slice sums formed, for each row of a block of each size
    gather = [nb * k * (u + 1) ** (d - 1) for u, (k, _) in enumerate(sizes)]
    slices = [nb * k * npb for k, npb in sizes]
    lead_in, all_in, summed, product = _buffers(
        "terms", np.complex128, [m * max(gather), n * max(gather), n * max(slices), max(slices)]
    )
    # mode="raise" would copy through a temporary; see _program for the checks
    for u, k, lead_at, all_at, rows, patterns in _program(d, n, m, sizes, nb):
        lead_entries = ext.take(lead_at, out=_shaped(lead_in, *lead_at.shape), mode="clip")
        if all_at is not None:
            all_entries = ext.take(all_at, out=_shaped(all_in, *all_at.shape), mode="clip")
        for w, sign in patterns:
            npat = len(w)
            lead = _slice_sums(w, lead_entries, _shaped(summed, u, nb, npat, k))
            lead = np.multiply.reduce(lead, axis=0, out=_shaped(product, nb, npat, k))
            lead *= sign
            r = None
            if all_at is not None:
                r = _slice_sums(w, all_entries, _shaped(summed, n, nb, npat, k))
                r[rows, :, :, np.arange(k)] = 0.0
                r = r.reshape(n, -1)
            yield u, lead.ravel(), r, None


def _ryser_stack(stack: np.ndarray, m: int) -> np.ndarray:
    """c_k = sum over k-subsets I of PER A_I, for k = 0..m and each A in a stack.

    stack holds B arrays of one shape (n, ..., n), d >= 2; row b of the
    (B, m + 1) result holds the c_k of stack[b]. Ryser's
    inclusion-exclusion on each of the d - 1 permutation axes writes
    PER(I + zA) as a signed sum over column-subset tuples
    (S_0, ..., S_{d-2}) of prod_i ([i in every S_t] + z r_i), with the
    masked slice sums r_i. With T_t the complement of S_t and U = union of
    the T_t, every row of U contributes a factor z, so only tuples with
    |U| = u <= m reach the coefficients k <= m:

        c_k = sum (-1)^(sum_t |T_t|) prod_{i in U} r_i e_{k-u}(r_i : i not in U),

    where e_j is the elementary symmetric polynomial. For d = 2 this is
    Ryser's formula truncated at order m. The co-subsets U are walked as a
    prefix tree (_co_subset_blocks, compiled into a cached program, see
    _program), and the step picked by d yields each block's signed lead
    products, for a matrix at 1 <= u < m its e_1, and, where needed, its
    slice sums (n x columns) with the rows of U zeroed, valid until the
    step resumes.
    Order m needs only the lead, so its tuples, the most numerous, cost
    O(u (u + 1)^(d-1)) whatever n is.

    The B arrays share one walk: each block holds B K columns, array b's
    first, and the fold sums each array's columns apart, so row b is bit
    for bit what a stack of stack[b] alone gives. The block layout depends
    on (n, d, u) alone, and the block partials are folded in walk order,
    so repeated calls give bit-identical results.

    The large block temporaries, complex and float, the recurrence's
    included, are views of a per-thread workspace sized from _block_sizes
    (see _buffers): fresh ones would take page faults on every block, and
    a warmed call takes none. Every position that the blocks gather comes
    from the compiled program, so a warmed call does no index arithmetic.
    """
    nb, d, n = len(stack), stack.ndim - 1, stack.shape[1]
    sizes = [_block_sizes(n, (1 << (d - 1)) - 1, u) for u in range(m + 1)]
    terms = _matrix_terms(stack, m, sizes) if d == 2 else _tensor_terms(stack, m, sizes)
    # e_0..e_(m-u) and one recurrence step for the widest block of each size u
    widths = [(m - u, nb * k * npb) for u, (k, npb) in enumerate(sizes)]
    regions = [max((j + 1) * w for j, w in widths), max(j * w for j, w in widths)]
    powers, step = _buffers("recurrence", np.complex128, regions)
    sums = np.zeros((nb, m + 1), dtype=np.complex128)
    # numpy gives every broadcast operand a fresh buffer of bufsize items
    bufsize = np.setbufsize(UFUNC_BUFFER)
    try:
        for u, lead, r, e1 in terms:
            if r is None:
                # e_0 = 1, and 1 * lead is lead bit for bit
                sums[:, u] += lead.reshape(nb, -1).sum(axis=1)
                if e1 is not None:
                    e1 = np.multiply(e1, lead, out=powers[: len(lead)])
                    sums[:, u + 1] += e1.reshape(nb, -1).sum(axis=1)
                continue
            e = _shaped(powers, m - u + 1, len(lead))
            lo, hi = e[:-1], e[1:]
            e[0], hi[...] = 1.0, 0.0
            if u == m - 1 and len(lead) > 1:
                # e_1 alone: the recurrence's running sum, added row by row as
                # numpy reduces a leading axis (a lone column would sum pairwise)
                np.add.reduce(r, axis=0, out=hi[0])
            else:
                t = _shaped(step, m - u, len(lead))
                for ri in r:
                    hi += np.multiply(ri, lo, out=t)
            if e1 is not None:
                e[1] = e1
            e *= lead
            # each array's columns summed apart
            sums[:, u:] += e.reshape(m - u + 1, nb, -1).sum(axis=2).T
    finally:
        np.setbufsize(bufsize)
    return sums


def _ryser_sums(arr: np.ndarray, m: int) -> list[complex]:
    """c_0..c_m of one array: _ryser_stack on a stack of one."""
    return [complex(c) for c in _ryser_stack(arr[None], m)[0]]


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
    the returned array. When there is one group, the array is arr itself;
    an array with no zero entry is one group at once.
    """
    d, n = arr.ndim, arr.shape[0]
    if np.count_nonzero(arr) == arr.size:
        # every G_t is complete: one component, and every entry is on a term
        return arr, [np.arange(n)]
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
    (_components), so the engine runs on each component C at order
    min(m, n_C), and the cap is charged for that work. Components of one
    size share engine passes (_ryser_stack), as many at a time as
    _batch_limit allows; each one's sums are bit for bit those of a pass
    of its own. The component polynomials are multiplied in component
    order, each coefficient summed in a fixed order, which keeps lower
    orders a bit-exact prefix of higher ones. A single component runs
    the engine on arr itself, whose sums keep a -0.0 that the product
    would turn into +0.0. The sizes n_C come in order of each component's
    smallest vertex.
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
    # component indices by size; with m fixed, the size also fixes the order
    by_size: dict[int, list[int]] = {}
    for c, size in enumerate(sizes):
        by_size.setdefault(size, []).append(c)
    parts = [None] * len(groups)
    for size, members in by_size.items():
        k = min(m, size)
        step = _batch_limit(size, (1 << (d - 1)) - 1, k)
        for s in range(0, len(members), step):
            batch = members[s : s + step]
            stack = np.stack([reduced[np.ix_(*(groups[c],) * d)] for c in batch])
            for c, row in zip(batch, _ryser_stack(stack, k)):
                parts[c] = [complex(x) for x in row]
    sums = [complex(1.0)] + [complex(0.0)] * m
    for c, k in zip(parts, orders):
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
        lam = check_dominance_tensor(arr).effective_lambda
        radius = 0.99 / lam if lam > 0 else 1.0
    sums, _ = _minor_sums(arr, arr.shape[0], work_cap)
    radii = np.linspace(0.0, radius, radial)
    thetas = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.full_like(z, sums[-1])
        for c in reversed(sums[:-1]):
            val = val * z + c
        moduli = np.abs(val)
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
