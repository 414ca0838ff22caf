"""permtaylor benchmark: oracle-checked CLI workloads, end to end and by stage.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-approx --seed 1 --seconds 45 --trace 0

Each run sets up its instances from the seed in fresh interpreters
(perfbench/instances.py, repeated SETUP_REPS times), then drives the
workload through `permtaylor.cli.run(argv)` in this process as a closed
loop: one call at a time, stdout captured, `--threads 1`.
Passes over the instance list repeat until --seconds have passed, while
perfbench/reference.py samples the host's speed; times are reported in
units of its kernel (`ref`) and, in the detail line, in seconds.
Every answer is checked against an oracle in perfbench/oracles.py after
the timed loop. With --trace 1 the run instead times each module's public
functions from outside (perfbench/stages.py) on the same instances.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the seed, the
machine and details such as the tail percentile and its sample count.
Exits with code 2, printing no result, when ./src/permtaylor is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from instances import MANIFEST, WORKLOADS  # noqa: E402
from reference import HostClock  # noqa: E402

# set-up repetitions on each side of the timed loop, so that the reported
# median samples two moments of the run
SETUP_REPS = 3
WORK_ROOT = ".perfbench_work"
# candidate tail percentiles, highest first; the reported tail is the first
# with at least TAIL_BEYOND samples above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
# --threads for every CLI call. The minor sums are pure Python under the
# GIL, so a second thread adds lock hand-offs, and their scheduling noise,
# but no speed; the traced run still times them at 2 threads
# (taylor.minor_sums_t2_s).
CLI_THREADS = 1


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def set_up(root: Path, workload: str, seed: int, workdir: Path) -> tuple[list[float], set[str]]:
    """Generate the instances SETUP_REPS times in fresh interpreters.

    Returns the wall time of each repetition and the set of digests of the
    files they wrote, which has one member when the inputs are deterministic.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "instances.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)]
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        times.append(time.perf_counter() - start)
        digests.add(proc.stdout.strip())
    return times, digests


def call_cli(run, argv: list[str]) -> tuple[int | None, float, str]:
    """One closed-loop call: (exit code or None if it raised, seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - start, out.getvalue()


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above it. A run too short for any of them has no
    estimable tail, and the tail falls back to the median; the maximum of
    a handful of calls would only measure the machine's noise."""
    import numpy as np

    for q in TAIL_LADDER:
        value = float(np.percentile(samples, q))
        if sum(1 for x in samples if x > value) >= TAIL_BEYOND:
            return q, value
    return 50.0, statistics.median(samples)


class Outcome:
    """Calls attempted and failed, and oracle verdicts on their outputs.

    A call fails when it raises or exits with another code than expected;
    failures are counted, not judged. `problems` holds what makes the run
    incorrect: an oracle mismatch or output that changes between passes.
    """

    def __init__(self, checker, calls: list[dict]):
        self.checker = checker
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, str] = {}
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.bound_checks = 0
        self.bound_ok = 0

    def record(self, i: int, rc: int | None, stdout: str) -> None:
        """Count one call; keep its first output, compare repeats with it."""
        self.attempted += 1
        if rc != self.calls[i]["expect_rc"]:
            self.failed += 1
            self.failures.append(f"call {i} {self.calls[i]['argv']}: exit {rc}")
        elif i not in self.first:
            self.first[i] = stdout
        elif self.first[i] != stdout:
            self.problems.append(f"call {i}: output differs between passes")

    def verify(self) -> None:
        """Oracle checks, run once per distinct call, outside every timed region."""
        for i, stdout in sorted(self.first.items()):
            try:
                ok, bound_ok = self.checker.check(self.calls[i], stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                bounded = self.calls[i]["check"].get("oracle") in BOUND_ORACLES
                ok, bound_ok = False, (False if bounded else None)
                self.problems.append(f"call {i}: unreadable output ({exc})")
            if bound_ok is not None:
                self.bound_checks += 1
                self.bound_ok += bound_ok
            if not ok:
                self.problems.append(f"call {i} {self.calls[i]['argv']}: oracle check failed")

    @property
    def correct(self) -> bool:
        return not self.problems


def timed_loop(call, argvs: list[list[str]], seconds: float, outcome: Outcome,
               clock: HostClock) -> tuple[list[float], list[float], float]:
    """Passes over the calls until `seconds` have elapsed, stopping at the
    first call boundary after that and after at least one whole pass,
    while the host clock samples. Returns each call's own seconds (less
    the clock's sampling), the same in units of the kernel's time around
    the call, and the loop's wall time."""
    spans = []
    start = time.perf_counter()
    with clock:
        while True:
            i = len(spans) % len(argvs)
            t0 = time.perf_counter()
            rc, _, stdout = call(argvs[i])
            spans.append((t0, time.perf_counter()))
            outcome.record(i, rc, stdout)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(spans) >= len(argvs):
                break
    samples = [b - a - clock.stolen(a, b) for a, b in spans]
    return samples, [dt / clock.around(a, b) for dt, (a, b) in zip(samples, spans)], elapsed


def median_pass(samples: list[float], calls_per_pass: int) -> float:
    """Time of a typical pass: the sum over the pass's calls of each
    call's median time across passes (the last pass may be partial). A
    slow spell of the host during one pass moves it less than the mean
    pass time would move."""
    return sum(statistics.median(samples[i::calls_per_pass]) for i in range(calls_per_pass))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description="permtaylor benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "permtaylor" / "__init__.py").is_file():
        print(f"error: no permtaylor sources under {src}", file=sys.stderr)
        return 2
    workdir = root / WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times, digests = set_up(root, args.workload, args.seed, workdir)

    sys.path.insert(0, str(src))
    import permtaylor.cli

    if not Path(permtaylor.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported permtaylor from {permtaylor.cli.__file__}", file=sys.stderr)
        return 2

    from oracles import BOUND_ORACLES, Checker

    calls = json.loads((workdir / MANIFEST).read_text())["calls"]
    threads = CLI_THREADS
    argvs = [c["argv"][:-1] + ["--threads", str(threads), str(workdir / c["argv"][-1])]
             for c in calls]

    def call(argv):
        return call_cli(permtaylor.cli.run, argv)

    outcome = Outcome(Checker(workdir), calls)
    detail = {"workload": args.workload, "seed": args.seed, "machine": machine_facts(),
              "threads": threads, "calls_per_pass": len(calls)}

    if args.trace:
        import stages

        metrics, info = stages.traced_run(calls, argvs, call, args.seconds, threads, outcome)
        detail.update(info)
        outcome.verify()
    else:
        clock = HostClock()
        samples, norm, elapsed = timed_loop(call, argvs, args.seconds, outcome, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        late_times, late_digests = set_up(root, args.workload, args.seed, workdir)
        setup_times += late_times
        digests |= late_digests
        outcome.verify()
        tail_q, tail_ref = tail(norm)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "instances_per_kref": metric(1000 * len(calls) / median_pass(norm, len(calls)),
                                         "1/kref"),
            "instance_ref.p50": metric(statistics.median(norm), "ref"),
            "instance_ref.tail": metric(tail_ref, "ref"),
            "bound_ok_frac": metric(outcome.bound_ok / max(outcome.bound_checks, 1), "frac"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        # the same in seconds, which move with the host's state
        _, tail_s = tail(samples)
        detail.update(samples=len(samples), passes=len(samples) // len(calls), loop_s=elapsed,
                      tail_percentile=tail_q,
                      instances_per_s=len(calls) / median_pass(samples, len(calls)),
                      instance_s_p50=statistics.median(samples), instance_s_tail=tail_s,
                      ref_s=statistics.median(clock.durations), ref_samples=len(clock.durations),
                      bound_checks=outcome.bound_checks, setup_s_reps=setup_times)
    if len(digests) != 1:
        outcome.problems.append("set-up repetitions wrote different inputs")
    detail["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    for problem in (outcome.problems + outcome.failures)[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
