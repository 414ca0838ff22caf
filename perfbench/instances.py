"""Seeded instance generation for the permtaylor benchmark.

Run as a script, this is the benchmark's set-up step: it starts an
interpreter, imports permtaylor (a user of the CLI pays for both), then
generates one workload's instance files and a manifest of the CLI calls
to make on them. It prints a SHA-256 digest of everything it wrote, so
the caller can check that one seed always gives the same inputs.

    PYTHONPATH=src python3 perfbench/instances.py \
        --workload matrix-approx --seed 1 --out .perfbench_work/matrix-approx-1

The generators are the benchmark's own and use numpy alone; nothing here
calls into permtaylor, so the inputs do not move when its generators do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("matrix-approx", "small-mixed")
MANIFEST = "manifest.json"

# matching-stats weight; with first-part degree 3 the weighted slice mass is
# 0.6^2 * 2 = 0.72, so the order reaches the polynomial's full degree
MATCHING_LAMBDA = 0.6
MAX_DEGREE = 3
ZERO_SCAN_GRID = 64


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def admissible_array(rng: np.random.Generator, d: int, n: int, lam: float,
                     zero_diag: bool = False) -> np.ndarray:
    """Dense complex cubical array whose axis-0 slice masses lie in
    [0.8, 0.999] * lam, with one slice at exactly 0.999 * lam so that the
    measured lambda, and with it the Taylor order, does not vary by seed."""
    t = _complex_normal(rng, (n,) * d)
    if zero_diag:
        t[tuple(np.arange(n) for _ in range(d))] = 0.0
    targets = lam * rng.uniform(0.8, 0.999, size=n)
    targets[rng.integers(n)] = 0.999 * lam
    mass = np.abs(t).reshape(n, -1).sum(axis=1)
    return t * (targets / mass).reshape((n,) + (1,) * (d - 1))


def block_matrix(n: int, lam: float, sign: int) -> np.ndarray:
    """2x2 blocks [[0, lam], [sign*lam, 0]]: per(I + A) = (1 + sign lam^2)^(n//2)."""
    a = np.zeros((n, n), dtype=np.complex128)
    for b in range(n // 2):
        a[2 * b, 2 * b + 1] = lam
        a[2 * b + 1, 2 * b] = sign * lam
    return a


def planted_hypergraph(rng: np.random.Generator, d: int, n: int, plants: int) -> dict:
    """d-partite hypergraph with a base perfect matching m0 and planted
    alternative perfect matchings, first-part degree at most MAX_DEGREE
    and equal to it somewhere; vertex labels are shuffled per part so m0
    is not the diagonal.

    Each plant picks 2 or 3 first-part vertices S and adds the edges
    (i, shift(i), pi(i), ...) for i in S, where shift is a cyclic shift of
    S and pi a random permutation of S. Together with the diagonal edges
    outside S they form a perfect matching at distance 2|S| from m0. A
    purely random hypergraph of this size usually has m0 as its only
    perfect matching, which makes the answer exactly 0 in log space.
    """
    edges = {(i,) * d for i in range(n)}
    degree = [1] * n
    planted = 0
    for _ in range(1000):
        if planted >= plants and max(degree) == MAX_DEGREE:
            break
        s = rng.choice(n, size=int(rng.integers(2, 4)), replace=False)
        if any(degree[i] >= MAX_DEGREE for i in s):
            continue
        others = [np.roll(s, 1)] + [rng.permutation(s) for _ in range(d - 2)]
        new = [(int(i),) + tuple(int(o[k]) for o in others) for k, i in enumerate(s)]
        if any(e in edges for e in new):
            continue
        edges.update(new)
        for i in s:
            degree[i] += 1
        planted += 1
    else:
        raise RuntimeError(f"could not plant {plants} matchings for d={d}, n={n}")
    labels = [rng.permutation(n) for _ in range(d)]

    def relabel(e):
        return [int(labels[t][v]) for t, v in enumerate(e)]

    return {
        "d": d,
        "n": n,
        "edges": sorted(relabel(e) for e in edges),
        "m0": [relabel((i,) * d) for i in range(n)],
    }


def _array_json(a: np.ndarray) -> dict:
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    if a.ndim == 2:
        return {"n": a.shape[0], "entries": entries}
    return {"d": a.ndim, "n": a.shape[0], "entries": entries}


def _malformed(rng: np.random.Generator, variant: int) -> str:
    """JSON text that every array command must reject with exit code 1."""
    n = int(rng.integers(2, 5))
    good = _array_json(admissible_array(rng, 2, n, 0.5))
    if variant == 0:
        text = json.dumps(good)
        return text[: len(text) // 2]
    if variant == 1:
        return json.dumps({"n": n})
    if variant == 2:
        return json.dumps({"n": n, "entries": good["entries"][:-1]})
    if variant == 3:
        good["entries"][0] = ["0.1", 0.0]
        return json.dumps(good)
    if variant == 4:
        return json.dumps({"n": True, "entries": good["entries"][:1]})
    if variant == 5:
        good["entries"][-1] = [float("nan"), 0.0]
        return json.dumps(good)
    return json.dumps({"d": 1, "n": n, "entries": good["entries"][:n]})


MALFORMED_VARIANTS = 7


class _Writer:
    def __init__(self, out: Path):
        self.out = out
        self.calls: list[dict] = []
        self.digest = hashlib.sha256()

    def file(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        (self.out / name).write_bytes(data)
        self.digest.update(name.encode() + b"\0" + data)
        return name

    def call(self, argv: list[str], expect_rc: int, **check) -> None:
        self.calls.append({"argv": argv, "expect_rc": expect_rc, "check": check})


def _matrix_approx(rng: np.random.Generator, w: _Writer) -> None:
    for i, n in enumerate((16, 18)):
        f = w.file(f"dense{i}.json", json.dumps(_array_json(admissible_array(rng, 2, n, 0.4))))
        w.call(["approx", f], 0, oracle="ryser")
    f = w.file("block.json", json.dumps(_array_json(block_matrix(18, 0.4, -1))))
    w.call(["approx", f], 0, oracle="block", lam=0.4, sign=-1)


def _grid(lo: float, hi: float, j: int, count: int) -> float:
    """The j-th of `count` evenly spaced points from lo to hi inclusive."""
    return lo + (hi - lo) * j / (count - 1)


def _small_mixed(rng: np.random.Generator, w: _Writer) -> None:
    specs = []
    # Every lambda comes from a fixed grid, not from the seed: the order m,
    # and with it the cost of a call, depends only on n and lambda, so each
    # seed asks for the same work on different entries. The n = 10 grid
    # includes 0.45 (order m = 6) so the stage sweep has the same K range
    # as the other workloads.
    # approx on matrices, n = 4..10
    for n in range(4, 11):
        for j in range(12):
            specs.append(("approx", admissible_array(rng, 2, n, _grid(0.2, 0.45, j, 12)), 0,
                          "ryser"))
    for n in (3, 4):
        for j in range(18):
            specs.append(("approx", admissible_array(rng, 3, n, _grid(0.2, 0.45, j, 18)), 0,
                          "tensor"))
    for k in range(48):
        d, n = (2, 4 + k % 7) if k % 4 else (3, 3 + k % 2)
        a = admissible_array(rng, d, n, _grid(0.2, 0.9, k, 48), zero_diag=k % 3 == 0)
        specs.append(("dominance", a, 0, "dominance"))
    for n in range(6, 10):
        for j in range(6):
            a = admissible_array(rng, 2, n, _grid(0.3, 0.6, j, 6))
            specs.append(("zero-scan", a, 0, "zero_scan"))
    # matching-stats on d = 3 hypergraphs, n = 4..5: hypergraph parse,
    # encoding and the tensor engine at full degree
    for k in range(12):
        hyper = planted_hypergraph(rng, 3, 4 + k % 2, 2)
        specs.append((f"matching-stats --lambda {MATCHING_LAMBDA}", json.dumps(hyper), 0,
                      "matchings"))
    # expected rejections: inadmissible (exit 2) and malformed (exit 1)
    for k in range(24):
        d, n = (2, 4 + k % 5) if k % 3 else (3, 3)
        a = admissible_array(rng, d, n, 0.5)
        if k % 2:
            i = int(rng.integers(n))
            a[i] *= float(rng.uniform(1.0, 1.5)) / np.abs(a[i]).sum()
            specs.append(("approx", a, 2, None))
        else:
            specs.append(("approx --lambda 0.2", a, 2, None))
    for k in range(24):
        cmd = ("approx", "dominance", "zero-scan")[k % 3]
        specs.append((cmd, _malformed(rng, k % MALFORMED_VARIANTS), 1, None))

    for idx in rng.permutation(len(specs)):
        cmd, data, expect_rc, oracle = specs[idx]
        text = data if isinstance(data, str) else json.dumps(_array_json(data))
        f = w.file(f"call{len(w.calls):03d}.json", text)
        argv = cmd.split() + [f]
        check = {"oracle": oracle} if oracle else {}
        if cmd == "zero-scan":
            argv[1:1] = ["--grid", f"{ZERO_SCAN_GRID}x{ZERO_SCAN_GRID}"]
            if oracle:
                check["point"] = [int(rng.integers(1, ZERO_SCAN_GRID)),
                                  int(rng.integers(0, ZERO_SCAN_GRID))]
        w.call(argv, expect_rc, **check)


GENERATORS = {
    "matrix-approx": _matrix_approx,
    "small-mixed": _small_mixed,
}


def generate(workload: str, seed: int, out: Path) -> str:
    """Write the instance files and manifest; return the content digest.

    Manifest paths are relative to `out`; argv lists carry the file name
    last and omit --threads, which the runner adds.
    """
    out.mkdir(parents=True, exist_ok=True)
    w = _Writer(out)
    rng = np.random.default_rng([seed % (1 << 64), WORKLOADS.index(workload)])
    GENERATORS[workload](rng, w)
    w.file(MANIFEST, json.dumps({"workload": workload, "seed": seed, "calls": w.calls}))
    return w.digest.hexdigest()


def main() -> None:
    import permtaylor.cli  # noqa: F401  set-up time includes the import users pay for

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    print(generate(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
