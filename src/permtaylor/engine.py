"""The minor-sum engine: c_k = sum over k-subsets I of PER A_I, for k = 0..m.

The rest of the package uses two names: minor_sums(stack, m), the sums of
each array in a stack of cubical arrays of one shape (n,) * d, d >= 2,
and minor_sum_work(n, d, m), the work that they are charged. Ryser's
inclusion-exclusion on each of the d - 1 permutation axes writes
PER(I + zA) as a signed sum over column-subset tuples
(S_0, ..., S_{d-2}) of prod_i ([i in every S_t] + z r_i), with the
masked slice sums r_i. With T_t the complement of S_t and U = union of
the T_t, every row of U contributes a factor z, so only tuples with
|U| = u <= m reach the coefficients k <= m:

    c_k = sum (-1)^(sum_t |T_t|) prod_{i in U} r_i e_{k-u}(r_i : i not in U),

where e_j is the elementary symmetric polynomial. For d = 2 this is
Ryser's formula truncated at order m. Order m needs only the lead
product, so its tuples, the most numerous, cost O(u (u + 1)^(d-1))
whatever n is.

Three choices shape the code; each reason is stated here once.

- Compiled programs. The co-subsets U are walked as a prefix tree, in
  blocks (_co_subset_blocks). The walk, and every position that its
  gathers read, depend on (d, n, m, the block sizes, B) alone, so
  _program compiles them once into a program that a process-wide cache
  keeps. A warmed call then only gathers, subtracts, multiplies and
  folds: it does no index arithmetic.
- Checked positions. The gathers clip their indices, since mode="raise"
  would copy through a temporary, so a position outside its array would
  pass silently. Every block of the walk is checked (_checked_walk), and
  a kept program's positions once more when they are stored (_stored). A
  program compiled inside the call skips that second pass, which costs
  about as much as the gathers on small blocks: its positions come from
  the checked rows and parents by the same sums of non-negative
  multiples, which keep them within their arrays.
- Workspace. The large block temporaries, complex and float, are views
  of a per-thread workspace (_buffers) sized from _block_sizes. It
  outlives the call, so warmed calls reuse pages that are already mapped:
  fresh temporaries would take page faults on every block, and a warmed
  call takes none.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict

import numpy as np

# entries in the engine's largest per-block temporary
BLOCK_ENTRIES = 1 << 16
# most columns in one matrix block
BLOCK_COLUMNS = 2048
# numpy's ufunc buffer size, in items, inside the engine
UFUNC_BUFFER = 1024
# bytes of the compiled walk programs kept between calls (see _program)
PLAN_BYTES = 1 << 22


@functools.lru_cache(maxsize=1024)
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
    recurrence. A pure function of (n, d, m), so its results are cached.
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

    A block's rows must lie in range(n), and its parents among the columns
    of the last block of the size below; a block outside raises IndexError.
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

    _matrix_program or _tensor_program compiles it from the checked walk.
    Every thread reads a kept program, and none writes to it. A kept
    program stores its positions, checked, in the narrowest unsigned dtype
    that holds them all, and every array in it is read-only. The programs
    kept hold at most PLAN_BYTES, and the least recently used go first. A
    program above that budget, whose size _program_bytes gives before any
    is built, is never held whole: it is compiled block by block inside
    the call, with np.intp positions. The key holds the walk function, so
    a replaced _co_subset_blocks gets programs of its own.
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

    Row pos[i] indexes an array of limits[i] entries; a position outside
    it raises IndexError. Viewed unsigned, a negative position is one far
    too large.
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

    The buffer outlives the call and grows only when a call needs more.
    The old buffer is let go before the larger one is taken, so the two
    never add up in the peak. A request overwrites
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
    zeroed, since no later block reads them there. The positions come from
    _matrix_program; the factors, row sums, gathered columns, lead and e_1
    are views of the workspace.
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
    # the gathers clip; the module docstring says why, and where they are checked
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
    tensor b. The positions and the pattern weights come from
    _tensor_program; the gathered entries, slice sums and lead products
    are views of the workspace.
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
    # the gathers clip; the module docstring says why, and where they are checked
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
    """One engine pass: the (B, m + 1) sums of a stack of B arrays; see minor_sums.

    The step picked by d yields each block's signed lead products, for a
    matrix at 1 <= u < m its e_1, and, where needed, its slice sums
    (n x columns) with the rows of U zeroed, valid until the step resumes.
    The recurrence's temporaries are workspace views too.

    The B arrays share one walk: each block holds B K columns, array b's
    first, and the fold sums each array's columns apart, so row b is bit
    for bit what a stack of stack[b] alone gives. The block layout depends
    on (n, d, u) alone, and the block partials are folded in walk order,
    so repeated calls give bit-identical results.
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


def minor_sums(stack: np.ndarray, m: int) -> np.ndarray:
    """c_0..c_m of each array in a stack, as a (B, m + 1) complex array.

    stack holds B arrays of one shape (n,) * d, d >= 2, and 0 <= m <= n;
    row b holds the sums of stack[b], bit for bit those of a stack of
    stack[b] alone. The stack runs in passes of at most _batch_limit arrays.
    """
    if len(stack) == 1:
        return _ryser_stack(stack, m)
    d, n = stack.ndim - 1, stack.shape[1]
    step = _batch_limit(n, (1 << (d - 1)) - 1, m)
    passes = [_ryser_stack(stack[s : s + step], m) for s in range(0, len(stack), step)]
    return np.concatenate(passes)
