"""Reference answers and output checks for the permtaylor benchmark.

Nothing here imports permtaylor: the oracles read the instance files with
the standard json module and compute with numpy alone.

  * ryser_permanent      per(M) by Ryser's formula, vectorised over subsets
  * tensor_permanent     PER(T) as a direct sum over permutation tuples
  * block_permanent      (1 + sign lam^2)^(n // 2) for the 2x2 block family
  * matching_weight      sum over perfect matchings M of lam^dist(M, m0),
                         by backtracking over the first part

Bound checks are branch-free: a log-space answer v with certified
additive bound b is within bound of an exact P when
|exp(v) / P - 1| <= expm1(b) + ROUNDING_SLACK, which follows from
|v - ln P| <= b on any branch.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

# allowance for floating-point error in the engine and in the oracles
# themselves; both stay below 1e-10 relative on the benchmark's sizes
ROUNDING_SLACK = 1e-9
RYSER_CHUNK = 1 << 14
# oracles whose answers carry a certified bound, counted in bound_ok_frac
BOUND_ORACLES = {"ryser", "tensor", "block", "matchings"}


def load_array(path: Path) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    n, d = obj["n"], obj.get("d", 2)
    entries = np.array([complex(re, im) for re, im in obj["entries"]])
    return entries.reshape((n,) * d)


def shifted(a: np.ndarray) -> np.ndarray:
    """I + A for a cubical array A."""
    out = a.astype(np.complex128)
    out[tuple(np.arange(a.shape[0]) for _ in range(a.ndim))] += 1.0
    return out


def ryser_permanent(m: np.ndarray) -> complex:
    """(-1)^n sum over nonempty column sets S of (-1)^|S| prod_i sum_{j in S} m_ij."""
    n = m.shape[0]
    cols = np.arange(n)
    total = 0j
    for start in range(1, 1 << n, RYSER_CHUNK):
        masks = np.arange(start, min(start + RYSER_CHUNK, 1 << n))
        bits = ((masks[:, None] >> cols) & 1).astype(np.float64)
        signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
        total += complex(np.sum(signs * np.prod(bits @ m.T, axis=1)))
    return -total if n % 2 else total


def tensor_permanent(t: np.ndarray) -> complex:
    """sum over (d-1)-tuples of permutations s of prod_i t[i, s_2(i), ..., s_d(i)].

    The last axis is vectorised over all permutations at once.
    """
    d, n = t.ndim, t.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    rows = np.arange(n)
    total = 0j
    for head in itertools.product(perms, repeat=d - 2):
        idx = (rows[None, :],) + tuple(p[None, :] for p in head) + (perms,)
        total += complex(np.prod(t[idx], axis=1).sum())
    return total


def block_permanent(n: int, lam: float, sign: int) -> float:
    return (1.0 + sign * lam * lam) ** (n // 2)


def matchings(d: int, n: int, edges) -> list[tuple[tuple[int, ...], ...]]:
    """Every perfect matching of a d-partite hypergraph with parts of size n."""
    by_first: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in edges:
        by_first[e[0]].append(tuple(e))
    used = [set() for _ in range(d)]
    chosen: list[tuple[int, ...]] = []
    found = []

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(chosen))
            return
        for e in by_first[i]:
            if any(e[t] in used[t] for t in range(1, d)):
                continue
            for t in range(1, d):
                used[t].add(e[t])
            chosen.append(e)
            extend(i + 1)
            chosen.pop()
            for t in range(1, d):
                used[t].discard(e[t])

    extend(0)
    return found


def matching_weight(hyper: dict, lam: float) -> float:
    """sum_M lam^|M symmetric-difference m0| over perfect matchings M."""
    m0 = {tuple(e) for e in hyper["m0"]}
    total = 0.0
    for m in matchings(hyper["d"], hyper["n"], hyper["edges"]):
        total += lam ** (2 * sum(1 for e in m if e not in m0))
    return total


def within_bound(value: complex, exact: complex, rel_bound: float) -> bool:
    """|value / exact - 1| <= rel_bound + ROUNDING_SLACK."""
    return abs(value / exact - 1.0) <= rel_bound + ROUNDING_SLACK


def log_within_bound(log_value: complex, exact: complex, log_bound: float) -> bool:
    """A log-space answer against an exact permanent, branch-free."""
    return within_bound(np.exp(log_value), exact, math.expm1(log_bound))


def _close(x: float, y: float, rel: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + 1e-300


def _pair(p) -> complex:
    return complex(p[0], p[1])


class Checker:
    """Checks CLI outputs of one workload against the oracles.

    check() returns (ok, bound_ok): ok is False when any check fails;
    bound_ok is None for outputs that carry no certified bound.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def check(self, call: dict, stdout: str) -> tuple[bool, bool | None]:
        oracle = call["check"].get("oracle")
        if oracle is None:
            return stdout == "", None
        doc = json.loads(stdout)
        path = self.workdir / call["argv"][-1]
        return getattr(self, "_" + oracle)(doc, path, call["check"])

    def _approx(self, doc: dict, exact: complex) -> tuple[bool, bool]:
        shape_ok = len(doc["g_derivs"]) == len(doc["f_derivs"]) == doc["m"] + 1
        ok = log_within_bound(_pair(doc["value"]), exact, doc["error_bound"])
        return shape_ok and ok, ok

    def _ryser(self, doc, path, _):
        return self._approx(doc, ryser_permanent(shifted(load_array(path))))

    def _tensor(self, doc, path, _):
        return self._approx(doc, tensor_permanent(shifted(load_array(path))))

    def _block(self, doc, path, check):
        n = load_array(path).shape[0]
        return self._approx(doc, block_permanent(n, check["lam"], check["sign"]))

    def _matchings(self, doc, path, _):
        hyper = json.loads(path.read_text())
        lam = doc["lambda"]
        degree = [0] * hyper["n"]
        for e in hyper["edges"]:
            degree[e[0]] += 1
        ok = within_bound(_pair(doc["value"]), matching_weight(hyper, lam),
                          doc["relative_error_bound"])
        shape_ok = doc["delta"] == max(degree) and doc["admissible"] is True
        return shape_ok and ok, ok

    def _dominance(self, doc, path, _):
        a = load_array(path)
        n = a.shape[0]
        sums = np.abs(a).reshape(n, -1).sum(axis=1)
        zero_diag = not np.any(a[tuple(np.arange(n) for _ in range(a.ndim))])
        ok = (
            len(doc["row_sums"]) == n
            and all(_close(x, y) for x, y in zip(doc["row_sums"], sums))
            and _close(doc["effective_lambda"], float(sums.max()))
            and doc["admissible"] == bool(sums.max() < 1.0)
            and doc["form"] == ("zero_diagonal_a" if zero_diag else "shifted_i_plus_a")
        )
        return ok, None

    def _zero_scan(self, doc, path, check):
        """Row 0 (z = 0) is all ones, the radius is 0.99 / lambda, the disk is
        zero-free, and one grid point matches |per(I + zA)| by Ryser."""
        a = load_array(path)
        moduli = np.array(doc["moduli"])
        radial, angular = doc["radial"], doc["angular"]
        lam = float(np.abs(a).sum(axis=1).max())
        r, k = check["point"]
        z = doc["radius"] * r / (radial - 1) * np.exp(2j * np.pi * k / angular)
        want = abs(ryser_permanent(np.eye(a.shape[0]) + z * a))
        ok = (
            moduli.shape == (radial, angular)
            and np.all(np.abs(moduli[0] - 1.0) <= 1e-12)
            and _close(doc["radius"], 0.99 / lam)
            and 0.0 < doc["min_modulus"] == moduli.min()
            and _close(moduli[r, k], want, 1e-9)
        )
        return bool(ok), None
