"""d-partite hypergraphs, their tensor encodings, and matching statistics.

A d-partite hypergraph with parts of n vertices each is encoded as a 0/1
cubical tensor with a 1 exactly at each edge's index tuple. Given that the
diagonal edges (i, ..., i) form a perfect matching M0, the tensor
permanent of I + w^2 (A - I) equals the sum over all perfect matchings M
of w^dist(M, M0).

Distance convention: dist(M, M0) is the size of the symmetric difference
of the edge sets. A matching that uses k non-diagonal edges contributes
(w^2)^k to the permanent and sits at symmetric-difference distance 2k, so
the identity above holds exactly under this reading (and only under it);
the brute-force enumerator in this module verifies it mechanically.

Admissibility of the weighted tensor depends only on the degrees of the
first part's vertices: slice i has l1 mass w^2 (deg(i) - 1), so the
approximation applies whenever w < sqrt(1 / (Delta - 1)) with Delta the
maximum first-part degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ApproxConfig,
    InadmissibleInputError,
    InvalidMatchingError,
    SizeCapError,
    check_sizes,
    diagonal_index,
    json_header,
    pair,
)
from .taylor import WORK_CAP, approx_log_permanent

MAX_EDGES = 40
MAX_PART_SIZE = 6

Edge = tuple[int, ...]


@dataclass(frozen=True)
class DPartiteHypergraph:
    """d parts of n vertices; each edge takes exactly one vertex per part.

    An edge is a list or tuple of integer vertex labels, as in the JSON
    format. Edges are stored as tuples sorted lexicographically, which
    fixes the enumeration order everywhere downstream.
    """

    d: int
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        check_sizes(self.d, self.n)
        edges = tuple(_edge(e) for e in self.edges)
        seen = set()
        for e in edges:
            if len(e) != self.d:
                raise ValueError(f"edge {e} does not have one vertex per part")
            if not all(0 <= v < self.n for v in e):
                raise ValueError(f"edge {e} has a vertex outside [0, {self.n})")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def first_part_degrees(self) -> list[int]:
        degs = [0] * self.n
        for e in self.edges:
            degs[e[0]] += 1
        return degs

    def has_diagonal_matching(self) -> bool:
        edges = set(self.edges)
        return all((i,) * self.d in edges for i in range(self.n))

    def to_json(self) -> dict:
        return {"d": self.d, "n": self.n, "edges": [list(e) for e in self.edges]}


def _edge(e) -> Edge:
    """e as an edge: a list or tuple of integer vertex labels (an int, not a
    bool), taken as is."""
    if not isinstance(e, (list, tuple)) or any(type(v) is not int for v in e):
        raise ValueError(f"edge {e!r} must be a list of integer vertex labels")
    return tuple(e)


def hypergraph_from_json(obj) -> tuple[DPartiteHypergraph, list[Edge] | None]:
    """Parse {"d", "n", "edges", optional "m0"}; returns (graph, m0 or None)."""
    d, n = json_header(obj, "hypergraph", "edges")
    h = DPartiteHypergraph(d, n, tuple(obj["edges"]))
    m0 = None
    if "m0" in obj and obj["m0"] is not None:
        m0 = [_edge(e) for e in obj["m0"]]
    return h, m0


@dataclass(frozen=True)
class MatchingStatsResult:
    """Approximate weighted matching count sum_M lam^dist(M, M0)."""

    lam: float
    value: complex
    log_value: complex
    error_bound_log: float
    relative_error_bound: float
    delta: int
    admissible: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "value": pair(self.value),
            "log_value": pair(self.log_value),
            "error_bound_log": self.error_bound_log,
            "relative_error_bound": self.relative_error_bound,
            "delta": self.delta,
            "admissible": self.admissible,
        }


def encode_tensor(h: DPartiteHypergraph) -> np.ndarray:
    """0/1 tensor with a 1 exactly at each edge's index tuple."""
    arr = np.zeros((h.n,) * h.d, dtype=np.complex128)
    for e in h.edges:
        arr[e] = 1.0
    return arr


def normalize_base_matching(h: DPartiteHypergraph, m0) -> DPartiteHypergraph:
    """Relabel vertices within each part so m0 becomes the diagonal matching.

    m0 must be a subset of the edges covering every vertex exactly once.
    The m0 edge with first-part vertex i is mapped to (i, ..., i); this is
    the first consistent relabeling in first-part order, and any valid one
    yields identical matching statistics.
    """
    m0_edges = [_edge(e) for e in m0]
    edge_set = set(h.edges)
    if len(m0_edges) != h.n or len(set(m0_edges)) != h.n:
        raise InvalidMatchingError(f"m0 must consist of {h.n} distinct edges")
    for e in m0_edges:
        if e not in edge_set:
            raise InvalidMatchingError(f"m0 edge {e} is not an edge of the hypergraph")
    for part in range(h.d):
        if sorted(e[part] for e in m0_edges) != list(range(h.n)):
            raise InvalidMatchingError(f"m0 does not cover part {part} exactly once")
    m0_edges.sort(key=lambda e: e[0])
    relabel = [[0] * h.n for _ in range(h.d)]
    for new_label, e in enumerate(m0_edges):
        for part in range(h.d):
            relabel[part][e[part]] = new_label
    new_edges = tuple(
        tuple(relabel[part][e[part]] for part in range(h.d)) for e in h.edges
    )
    return DPartiteHypergraph(h.d, h.n, new_edges)


def enumerate_matchings(
    h: DPartiteHypergraph, max_edges: int = MAX_EDGES, max_n: int = MAX_PART_SIZE
) -> list[tuple[tuple[Edge, ...], int]]:
    """All perfect matchings with their symmetric-difference distance to
    the diagonal matching, by backtracking over first-part vertices.

    Matchings are returned as sorted edge tuples in lexicographic search
    order. Exponential in the worst case; guarded by size caps.
    """
    if len(h.edges) > max_edges or h.n > max_n:
        raise SizeCapError(
            f"matching enumeration capped at {max_edges} edges and n <= {max_n}"
        )
    by_first: list[list[Edge]] = [[] for _ in range(h.n)]
    for e in h.edges:
        by_first[e[0]].append(e)
    used = [[False] * h.n for _ in range(h.d - 1)]
    chosen: list[Edge] = []
    out: list[tuple[tuple[Edge, ...], int]] = []
    diagonal = {(i,) * h.d for i in range(h.n)}

    def backtrack(i: int) -> None:
        if i == h.n:
            matching = tuple(chosen)
            off = sum(1 for e in matching if e not in diagonal)
            out.append((matching, 2 * off))
            return
        for e in by_first[i]:
            if any(used[t][e[t + 1]] for t in range(h.d - 1)):
                continue
            for t in range(h.d - 1):
                used[t][e[t + 1]] = True
            chosen.append(e)
            backtrack(i + 1)
            chosen.pop()
            for t in range(h.d - 1):
                used[t][e[t + 1]] = False

    backtrack(0)
    return out


def matching_stats(
    h: DPartiteHypergraph,
    lam: float,
    epsilon: float = 0.01,
    threads: int = 1,
    work_cap: int = WORK_CAP,
) -> MatchingStatsResult:
    """Approximate sum_M lam^dist(M, M0) for the diagonal base matching M0.

    Builds the zero-diagonal weighted tensor lam^2 (A - I), whose n^d
    entries are charged against `work_cap` first, and runs the Taylor
    approximation of the log at its measured lambda, which also checks
    slice dominance (above the order gate of approx_log_permanent, at its
    scaled lambda and exact tail). The result carries both the log-space
    value with its additive bound and the exponentiated count with
    relative bound e^bound - 1. `threads` is accepted for compatibility and
    has no effect.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not h.has_diagonal_matching():
        raise InvalidMatchingError(
            "the diagonal edges (i, ..., i) must all be present; relabel with "
            "normalize_base_matching first"
        )
    delta = max(h.first_part_degrees())
    # any n >= 2 passes the cap by d = its bit length, so no huge power is formed
    if h.n ** min(h.d, int(work_cap).bit_length()) > work_cap:
        raise SizeCapError(
            f"dense encoding of the hypergraph needs n^d = {h.n}^{h.d} tensor entries, "
            f"cap is {work_cap}"
        )

    def too_large() -> InadmissibleInputError:
        return InadmissibleInputError(
            f"lam = {lam} is too large: lam^2 (Delta - 1) = "
            f"{lam * lam * (delta - 1):.6g} must be below 1"
        )

    t = encode_tensor(h)
    t[diagonal_index(h.d, h.n)] = 0.0
    # with M0's edges alone t stays zero at any lam; otherwise a lam^2 beyond
    # float64 would weight the zero entries by 0 * inf
    if delta > 1:
        if math.isinf(lam * lam):
            raise too_large()
        t *= lam * lam
    try:
        taylor = approx_log_permanent(t, ApproxConfig(None, epsilon), work_cap=work_cap)
    except InadmissibleInputError:
        raise too_large() from None
    return MatchingStatsResult(
        lam=lam,
        value=cmath.exp(taylor.value),
        log_value=taylor.value,
        error_bound_log=taylor.error_bound,
        relative_error_bound=math.expm1(taylor.error_bound),
        delta=delta,
        admissible=True,
    )
