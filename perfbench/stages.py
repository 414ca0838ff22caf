"""Per-stage timing of the permtaylor pipeline, measured from outside.

For every call a workload makes, the traced pass first times the whole
`cli.run(argv)` call untraced, then calls each module's public functions
in pipeline order on the same instance and times each call:

  cli.self_s          argparse, reading and decoding the file, writing stdout
  core.parse_s        matrix_from_json / tensor_from_json
  hypergraph.parse_s  hypergraph_from_json + normalize_base_matching
  hypergraph.encode_s encode_tensor
  dominance.check_s   check_dominance_matrix / _tensor, once per call site
  taylor.*            choose_order, perm_poly_derivs[_tensor] at 1 and 2
                      threads, log_derivatives
  core.render_s       json_dumps(result.to_json())

The self time of a function that calls other stages is its own measured
duration minus theirs: taylor.approx.self_s for approx_log_permanent,
taylor.zero_scan.grid_s for zero_scan, hypergraph.matching_stats.self_s
for matching_stats. At 2 ms stages beside a multi-second minor-sum stage
these residuals are within timing noise of zero.

trace.coverage_frac divides the sum of the stage times at the CLI's
thread count by the untraced time of the same calls; expected rejections
are run and checked but left out of both sums. A value near 1 says the
stages account for the whole call. Time metrics are totals over one pass
of the workload; with time for several passes the median pass is kept.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import time
import traceback

import numpy as np
from permtaylor import (
    ApproxConfig,
    approx_log_permanent,
    check_dominance_matrix,
    check_dominance_tensor,
    choose_order,
    encode_tensor,
    hypergraph_from_json,
    json_dumps,
    log_derivatives,
    matching_stats,
    matrix_from_json,
    normalize_base_matching,
    perm_poly_derivs,
    perm_poly_derivs_tensor,
    tensor_from_json,
    zero_scan,
)
from permtaylor.cli import build_parser

UPTO_K = 6
COVERAGE_TOLERANCE = 0.25
TIME_STAGES = (
    "cli.self_s",
    "core.parse_s",
    "core.render_s",
    "dominance.check_s",
    "taylor.choose_order_s",
    "taylor.minor_sums_s",
    "taylor.minor_sums_t2_s",
    "taylor.log_solve_s",
    "taylor.approx.self_s",
    "taylor.zero_scan.grid_s",
    "hypergraph.parse_s",
    "hypergraph.encode_s",
    "hypergraph.matching_stats.self_s",
)
COUNTS = ("taylor.order_m", "taylor.minor_sums.principal_minors")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _minors(n: int, m: int) -> int:
    return sum(math.comb(n, k) for k in range(m + 1))


class TracedPass:
    """Stage totals and counts over one pass of a workload."""

    def __init__(self, threads: int, outcome):
        self.threads = threads
        self.outcome = outcome
        self.t = dict.fromkeys(TIME_STAGES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.untraced = 0.0
        self.largest = None  # (n, m_g, array, minor-sum seconds)

    def time(self, stage: str, fn, *args, **kwargs):
        out, dt = _timed(fn, *args, **kwargs)
        self.t[stage] += dt
        self.last = dt
        return out

    @property
    def minor_stage(self) -> str:
        return "taylor.minor_sums_s" if self.threads == 1 else "taylor.minor_sums_t2_s"

    def front(self, argv: list[str]):
        """argparse and file decoding, the CLI's own work before parsing."""
        args = self.time("cli.self_s", lambda: build_parser().parse_args(argv))

        def load():
            with open(args.input, encoding="utf-8") as fh:
                return json.load(fh)

        return args, self.time("cli.self_s", load)

    def back(self, doc: dict) -> None:
        text = self.time("core.render_s", json_dumps, doc)
        self.time("cli.self_s", io.StringIO().write, text + "\n")

    def parse_array(self, obj):
        return self.time("core.parse_s", tensor_from_json if "d" in obj else matrix_from_json, obj)

    def dominance(self, arr):
        check = check_dominance_matrix if arr.ndim == 2 else check_dominance_tensor
        return self.time("dominance.check_s", check, arr)

    def minor_sums(self, arr, m: int) -> tuple[list[complex], float]:
        """perm_poly_derivs at 1 and 2 threads; returns the derivatives and
        the seconds at the CLI's thread count."""
        derivs = perm_poly_derivs if arr.ndim == 2 else perm_poly_derivs_tensor
        g1, t1 = _timed(derivs, arr, m, threads=1)
        g2, t2 = _timed(derivs, arr, m, threads=2)
        self.t["taylor.minor_sums_s"] += t1
        self.t["taylor.minor_sums_t2_s"] += t2
        if g1 != g2:
            self.outcome.problems.append("minor sums differ between 1 and 2 threads")
        self.counts["taylor.minor_sums.principal_minors"] += _minors(arr.shape[0], m)
        return g2, (t1 if self.threads == 1 else t2)

    def taylor(self, arr, epsilon: float) -> float:
        """The stages inside approx_log_permanent; returns their seconds."""
        n = arr.shape[0]
        lam = self.dominance(arr).effective_lambda
        spent = self.last
        m = self.time("taylor.choose_order_s", choose_order, n, lam, epsilon)
        spent += self.last
        m_g = min(m, n)
        g, t_minor = self.minor_sums(arr, m_g)
        spent += t_minor
        self.time("taylor.log_solve_s", log_derivatives, g + [0j] * (m - m_g))
        spent += self.last
        self.counts["taylor.order_m"] += m
        if self.largest is None or (n, m_g) > self.largest[:2]:
            self.largest = (n, m_g, arr, t_minor)
        return spent

    def approx(self, argv: list[str]) -> None:
        args, obj = self.front(argv)
        arr = self.parse_array(obj)
        lam = args.lam
        if lam is None:  # the CLI measures lambda when the flag is absent
            lam = self.dominance(arr).effective_lambda or 0.5
        cfg = ApproxConfig(lam=lam, epsilon=args.epsilon, order_override=args.order)
        result, total = _timed(approx_log_permanent, arr, cfg, threads=self.threads)
        self.t["taylor.approx.self_s"] += total - self.taylor(arr, args.epsilon)
        self.back(result.to_json())

    def dominance_report(self, argv: list[str]) -> None:
        _, obj = self.front(argv)
        self.back(self.dominance(self.parse_array(obj)).to_json())

    def zero_scan(self, argv: list[str]) -> None:
        args, obj = self.front(argv)
        arr = self.parse_array(obj)
        radial, angular = (int(v) for v in args.grid.lower().split("x"))
        report, total = _timed(zero_scan, arr, radius=args.radius, radial=radial,
                               angular=angular, threads=self.threads)
        self.dominance(arr)
        inner = self.last + self.minor_sums(arr, arr.shape[0])[1]
        self.t["taylor.zero_scan.grid_s"] += total - inner
        self.back(report.to_json())

    def matching_stats(self, argv: list[str]) -> None:
        args, obj = self.front(argv)
        h, m0 = self.time("hypergraph.parse_s", hypergraph_from_json, obj)
        h = self.time("hypergraph.parse_s", normalize_base_matching, h, m0)
        result, total = _timed(matching_stats, h, args.lam, epsilon=args.epsilon,
                               threads=self.threads)
        t = self.time("hypergraph.encode_s", encode_tensor, h)
        inner = self.last
        t[tuple(np.arange(h.n) for _ in range(h.d))] = 0.0
        t *= args.lam * args.lam
        lam = self.dominance(t).effective_lambda
        inner += self.last
        cfg = ApproxConfig(lam=lam if 0 < lam < 1 else 0.5, epsilon=args.epsilon)
        _, t_approx = _timed(approx_log_permanent, t, cfg, threads=self.threads)
        self.t["taylor.approx.self_s"] += t_approx - self.taylor(t, args.epsilon)
        self.t["hypergraph.matching_stats.self_s"] += total - inner - t_approx
        self.back(result.to_json())

    def coverage_time(self) -> float:
        skip = {"taylor.minor_sums_s", "taylor.minor_sums_t2_s"} - {self.minor_stage}
        return sum(v for k, v in self.t.items() if k not in skip)


PIPELINES = {
    "approx": TracedPass.approx,
    "dominance": TracedPass.dominance_report,
    "zero-scan": TracedPass.zero_scan,
    "matching-stats": TracedPass.matching_stats,
}


def traced_pass(calls, argvs, call, threads: int, outcome) -> TracedPass:
    p = TracedPass(threads, outcome)
    for i, (c, argv) in enumerate(zip(calls, argvs)):
        rc, dt, stdout = call(argv)
        outcome.record(i, rc, stdout)
        if c["expect_rc"] != 0 or rc != 0:
            continue
        p.untraced += dt
        try:
            PIPELINES[argv[0]](p, argv)
        except Exception:
            outcome.problems.append(f"traced call {i} {c['argv']}: {traceback.format_exc()}")
    return p


def upto_k(p: TracedPass, threads: int) -> dict[str, float]:
    """Seconds of perm_poly_derivs(A, K), K = 1..UPTO_K, on the pass's
    largest instance (most rows, then highest order)."""
    n, m_g, arr, t_m = p.largest
    derivs = perm_poly_derivs if arr.ndim == 2 else perm_poly_derivs_tensor
    out = {}
    for k in range(1, min(UPTO_K, n) + 1):
        out[f"taylor.minor_sums.upto_k{k}_s"] = (
            t_m if k == m_g else _timed(derivs, arr, k, threads=threads)[1]
        )
    return out


def traced_run(calls, argvs, call, seconds: float, threads: int, outcome):
    """Traced passes until `seconds` have elapsed; returns (metrics, info)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(traced_pass(calls, argvs, call, threads, outcome))

    def median(f):
        return statistics.median(f(p) for p in passes)

    metrics = {k: {"value": median(lambda p: p.t[k]), "unit": "s"} for k in TIME_STAGES}
    for k in COUNTS:
        metrics[k] = {"value": passes[0].counts[k], "unit": "count"}
    metrics["taylor.minor_sums.minors_per_s"] = {
        "value": median(lambda p: p.counts["taylor.minor_sums.principal_minors"]
                        / p.t[p.minor_stage]),
        "unit": "1/s",
    }
    for k, v in upto_k(passes[0], threads).items():
        metrics[k] = {"value": v, "unit": "s"}
    coverage = median(lambda p: p.coverage_time() / p.untraced)
    metrics["trace.coverage_frac"] = {"value": coverage, "unit": "frac"}
    info = {
        "traced_passes": len(passes),
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "coverage_within_tolerance": abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
    }
    return metrics, info
