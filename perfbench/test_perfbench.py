"""Tests of the benchmark's oracles, generators and checks.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import instances  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
from permtaylor import (  # noqa: E402
    enumerate_matchings,
    hypergraph_from_json,
    normalize_base_matching,
    permanent_ryser,
    permanent_tensor,
)
from permtaylor.cli import run as cli_run  # noqa: E402


def _rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(x, y, rel=1e-10):
    return abs(x - y) <= rel * max(1.0, abs(y))


@pytest.mark.parametrize("n", range(1, 9))
def test_ryser_oracle_matches_engine(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        m = _rand(rng, (n, n))
        assert _close(oracles.ryser_permanent(m), permanent_ryser(m))


@pytest.mark.parametrize("d,n", [(2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_tensor_oracle_matches_engine(d, n):
    rng = np.random.default_rng(10 * d + n)
    t = _rand(rng, (n,) * d)
    assert _close(oracles.tensor_permanent(t), permanent_tensor(t))


@pytest.mark.parametrize("n,sign", [(6, 1), (6, -1), (7, -1), (18, -1)])
def test_block_closed_form_matches_ryser(n, sign):
    a = instances.block_matrix(n, 0.4, sign)
    want = oracles.block_permanent(n, 0.4, sign)
    assert _close(permanent_ryser(oracles.shifted(a)), want)
    assert _close(oracles.ryser_permanent(oracles.shifted(a)), want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d,n", [(3, 6), (4, 5)])
def test_matching_oracle_matches_enumerate_matchings(seed, d, n):
    hyper = instances.planted_hypergraph(np.random.default_rng(seed), d, n, 3)
    h, m0 = hypergraph_from_json(hyper)
    found = enumerate_matchings(normalize_base_matching(h, m0))
    mine = oracles.matchings(d, n, hyper["edges"])
    assert len(mine) == len(found) > 1
    want = sum(0.6**dist for _, dist in found)
    assert _close(oracles.matching_weight(hyper, 0.6), want)


def test_planted_hypergraphs_reach_the_degree_cap():
    for seed in range(20):
        hyper = instances.planted_hypergraph(np.random.default_rng(seed), 3, 6, 4)
        degree = np.bincount([e[0] for e in hyper["edges"]], minlength=6)
        assert degree.max() == instances.MAX_DEGREE
        assert sorted(tuple(e) for e in hyper["m0"]) != [(i,) * 3 for i in range(6)]


def _checked(tmp_path, argv, check):
    """Run one CLI call on a generated file; return (checker, call, stdout)."""
    call = {"argv": argv, "expect_rc": 0, "check": check}
    out = StringIO()
    with redirect_stdout(out):
        assert cli_run(argv[:-1] + [str(tmp_path / argv[-1])]) == 0
    return oracles.Checker(tmp_path), call, out.getvalue()


def test_value_shifted_by_twice_its_bound_is_a_miss(tmp_path):
    a = instances.admissible_array(np.random.default_rng(3), 2, 7, 0.5)
    (tmp_path / "a.json").write_text(json.dumps(instances._array_json(a)))
    checker, call, stdout = _checked(tmp_path, ["approx", "a.json"], {"oracle": "ryser"})
    assert checker.check(call, stdout) == (True, True)
    doc = json.loads(stdout)
    for sign in (1, -1):
        shifted = dict(doc, value=[doc["value"][0] + sign * 2 * doc["error_bound"],
                                   doc["value"][1]])
        assert checker.check(call, json.dumps(shifted)) == (False, False)


def test_matching_count_shifted_by_twice_its_bound_is_a_miss(tmp_path):
    hyper = instances.planted_hypergraph(np.random.default_rng(5), 3, 5, 3)
    (tmp_path / "h.json").write_text(json.dumps(hyper))
    checker, call, stdout = _checked(
        tmp_path, ["matching-stats", "--lambda", "0.6", "h.json"], {"oracle": "matchings"})
    assert checker.check(call, stdout) == (True, True)
    doc = json.loads(stdout)
    factor = 1 + 2 * doc["relative_error_bound"]
    shifted = dict(doc, value=[doc["value"][0] * factor, doc["value"][1]])
    assert checker.check(call, json.dumps(shifted)) == (False, False)


def test_log_bound_check_is_branch_free():
    exact = complex(-0.3, 0.2)
    log = complex(math.log(abs(exact)), math.atan2(exact.imag, exact.real) + 2 * math.pi)
    assert oracles.log_within_bound(log, exact, 1e-6)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = instances.generate(workload, 7, tmp_path / "a")
    assert instances.generate(workload, 7, tmp_path / "b") == first
    assert instances.generate(workload, 8, tmp_path / "c") != first


def _work_shape(tmp_path, seed):
    """(argv without the file, d, n, max slice mass) of every call."""
    out = tmp_path / str(seed)
    instances.generate("small-mixed", seed, out)
    shape = []
    for c in json.loads((out / instances.MANIFEST).read_text())["calls"]:
        key = tuple(c["argv"][:-1])
        if c["expect_rc"]:
            shape.append((key, c["expect_rc"]))
            continue
        doc = json.loads((out / c["argv"][-1]).read_text())
        if "edges" in doc:
            shape.append((key, doc["d"], doc["n"]))
            continue
        raw = np.array(doc["entries"], dtype=float)
        n, d = doc["n"], doc.get("d", 2)
        mass = np.abs(raw[:, 0] + 1j * raw[:, 1]).reshape(n, -1).sum(axis=1).max()
        shape.append((key, d, n, round(float(mass), 9)))
    return sorted(shape, key=repr)


def test_small_mixed_asks_every_seed_for_the_same_work(tmp_path):
    assert _work_shape(tmp_path, 1) == _work_shape(tmp_path, 2)


def test_reference_kernel_is_a_permanent():
    assert _close(reference.kernel(), oracles.ryser_permanent(np.array(reference._ROWS)))


def test_host_clock_samples_inside_a_long_call():
    with reference.HostClock(every=0.01) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(clock.durations) >= 5
    assert 0 < clock.stolen(start, end) < end - start
    assert clock.around(start, end) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_clock_reads_the_samples_around_a_call():
    clock = reference.HostClock()
    clock.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    clock.durations = [1.0, 2.0, 4.0, 8.0, 16.0]
    clock._ends = [t + 0.5 for t in clock.starts]
    assert clock.around(1.5, 2.5, pad=0.6, least=3) == 4.0
    assert clock.around(1.5, 2.5, pad=0.6, least=4) == 3.0  # widened to 2.4 s
    assert clock.around(1.5, 2.5, pad=0.6, least=50) == 4.0  # all samples
    assert clock.stolen(0.5, 2.5) == 1.0


def test_small_mixed_rejections_exit_as_documented(tmp_path):
    instances.generate("small-mixed", 4, tmp_path)
    calls = json.loads((tmp_path / instances.MANIFEST).read_text())["calls"]
    rejections = [c for c in calls if c["expect_rc"]]
    assert {c["expect_rc"] for c in rejections} == {1, 2}
    for c in rejections:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert cli_run(c["argv"][:-1] + [str(tmp_path / c["argv"][-1])]) == c["expect_rc"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
