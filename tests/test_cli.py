"""End-to-end CLI checks through subprocesses: schemas, exit codes, and
consistency between the approx and exact commands."""

import argparse
import cmath
import json
import math
import sys

import numpy as np
import pytest

from permtaylor import cli as cli_module
from permtaylor import exact
from permtaylor import (
    ApproxConfig,
    approx_log_permanent,
    dominance,
    engine,
    hypergraph,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    taylor,
    tensor_from_json,
    tensor_to_json,
)


@pytest.fixture
def matrix_file(tmp_path, cli):
    code, out, err = cli("gen", "matrix", "--n", "6", "--seed", "3")
    assert code == 0, err
    path = tmp_path / "matrix.json"
    path.write_text(out)
    return path


def test_gen_block_matches_closed_form(tmp_path, cli):
    code, out, _ = cli("gen", "block", "--n", "10", "--lambda", "0.5")
    assert code == 0
    path = tmp_path / "block.json"
    path.write_text(out)
    code, out, _ = cli("exact", str(path))
    assert code == 0
    per = json.loads(out)["permanent"]
    assert per[0] == pytest.approx(1.25**5, abs=1e-12)
    assert per[1] == 0


@pytest.mark.parametrize("kind", ["block", "matrix", "tensor", "dominant"])
@pytest.mark.parametrize("lam", ["0", "-0.5", "nan"])
def test_gen_rejects_non_positive_lambda(cli, kind, lam):
    code, out, err = cli("gen", kind, "--n", "3", "--lambda", lam)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error: --lambda")


def test_approx_reports_components(tmp_path, cli):
    code, out, _ = cli("gen", "block", "--n", "18", "--lambda", "0.4", "--sign", "minus")
    path = tmp_path / "block.json"
    path.write_text(out)
    code, out, err = cli("approx", str(path))
    assert code == 0, err
    assert err.startswith("n = 18, components 9 (largest 2), order m = 6, ")


def test_cached_per_shape_state_does_not_leak_between_calls(tmp_path, cli, capsys):
    # the engine keeps each shape's program and workspace regions, and the
    # renderer its formats, for later calls; a call must print what it
    # prints alone in a fresh interpreter, whichever calls came before
    gens = {
        "dense": ["matrix", "--n", "16", "--lambda", "0.4", "--seed", "1"],
        "block": ["block", "--n", "18", "--lambda", "0.4", "--sign", "minus"],
        "tensor": ["tensor", "--d", "3", "--n", "5", "--lambda", "0.5", "--seed", "2"],
    }
    paths, alone = {}, {}
    for name, argv in gens.items():
        code, out, err = cli("gen", *argv)
        assert code == 0, err
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(out)
        alone[name] = cli("approx", str(paths[name]))
    # above the order gate at m = 5; nine stacked components; full degree
    assert json.loads(alone["dense"][1])["m"] == 5
    assert alone["block"][2].startswith("n = 18, components 9 (largest 2), order m = 6, ")
    assert json.loads(alone["tensor"][1])["m"] > 5
    engine._plans.clear()
    for order in (["dense", "block", "tensor"], ["tensor", "block", "dense"]):
        for _ in range(2):
            for name in order:
                code = cli_module.run(["approx", str(paths[name])])
                assert (code, *capsys.readouterr()) == alone[name], name


def test_exact_raw_flag(tmp_path, cli):
    doc = matrix_to_json(np.array([[2.0, 0], [0, 3.0]]))
    path = tmp_path / "d.json"
    path.write_text(json_dumps(doc))
    code, out, _ = cli("exact", "--raw", str(path))
    assert json.loads(out)["permanent"] == [6.0, 0.0]
    code, out, _ = cli("exact", str(path))
    assert json.loads(out)["permanent"] == [12.0, 0.0]  # per(I + A)


def test_approx_schema_and_round_trip(matrix_file, cli):
    code, out, err = cli("approx", "--epsilon", "0.01", str(matrix_file))
    assert code == 0, err
    doc = json.loads(out)
    assert list(doc) == ["m", "value", "error_bound", "g_derivs", "f_derivs"]
    assert len(doc["g_derivs"]) == doc["m"] + 1
    assert doc["g_derivs"][0] == [1.0, 0.0]
    assert doc["error_bound"] <= 0.01


def test_approx_agrees_with_exact(matrix_file, cli):
    code, out, _ = cli("approx", "--epsilon", "0.01", str(matrix_file))
    value = complex(*json.loads(out)["value"])
    bound = json.loads(out)["error_bound"]
    code, out, _ = cli("exact", str(matrix_file))
    per = complex(*json.loads(out)["permanent"])
    # |approx_log - ln per| <= bound, branch-independent after exponentiating
    assert abs(cmath.exp(value) - per) / abs(per) <= math.expm1(bound)


def test_dominance_schema(matrix_file, cli):
    code, out, _ = cli("dominance", str(matrix_file))
    doc = json.loads(out)
    assert set(doc) >= {"row_sums", "effective_lambda", "admissible"}
    assert doc["admissible"] is True
    assert doc["effective_lambda"] == pytest.approx(max(doc["row_sums"]))


def test_dominance_scaled_flag(tmp_path, cli):
    code, out, _ = cli("gen", "dominant", "--n", "5", "--lambda", "0.6", "--seed", "2")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, out, _ = cli("dominance", "--scaled", str(path))
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["effective_lambda"] <= 0.6
    assert doc["form"] == "general_b"


def test_dominance_scaled_flag_on_tensor(tmp_path, cli):
    code, out, _ = cli("gen", "tensor", "--d", "3", "--n", "3", "--lambda", "0.6", "--seed", "4")
    t = tensor_from_json(json.loads(out))
    path = tmp_path / "b.json"
    path.write_text(json_dumps(tensor_to_json(identity_tensor(3, 3) + t)))
    code, out, _ = cli("dominance", "--scaled", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "general_b"
    assert len(doc["row_sums"]) == 3


def test_tensor_pipeline(tmp_path, cli):
    code, out, _ = cli("gen", "tensor", "--d", "3", "--n", "3", "--seed", "1")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, out, _ = cli("approx", "--epsilon", "0.05", str(path))
    assert code == 0
    value = complex(*json.loads(out)["value"])
    bound = json.loads(out)["error_bound"]
    code, out, _ = cli("exact", str(path))
    per = complex(*json.loads(out)["permanent"])
    assert abs(cmath.exp(value) - per) / abs(per) <= math.expm1(bound)


def test_matching_stats_command(tmp_path, cli):
    code, out, _ = cli("gen", "hypergraph", "--d", "3", "--n", "3", "--extra", "4",
                       "--seed", "5", "--delta-cap", "3")
    path = tmp_path / "h.json"
    path.write_text(out)
    code, out, err = cli("matching-stats", "--lambda", "0.4", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["value"][0] >= 1.0  # the diagonal matching always contributes 1


def test_matching_stats_normalizes_m0(tmp_path, cli):
    doc = {
        "d": 2,
        "n": 2,
        "edges": [[0, 1], [1, 0], [0, 0], [1, 1]],
        "m0": [[0, 1], [1, 0]],
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("matching-stats", "--lambda", "0.4", str(path))
    assert code == 0, err
    got = json.loads(out)["value"]
    assert got[0] == pytest.approx(1 + 0.4**4, rel=1e-3)


def test_zero_scan_emits_grid(matrix_file, cli):
    code, out, _ = cli("zero-scan", "--grid", "8x16", str(matrix_file))
    doc = json.loads(out)
    assert doc["radial"] == 8 and doc["angular"] == 16
    assert len(doc["moduli"]) == 8 and len(doc["moduli"][0]) == 16
    assert doc["min_modulus"] > 0


@pytest.mark.parametrize("radius", ["nan", "-2"])
def test_zero_scan_rejects_bad_radius(matrix_file, cli, radius):
    code, out, err = cli("zero-scan", "--radius", radius, str(matrix_file))
    assert code == 1
    assert out == "" and err.startswith("error:") and "radius" in err


@pytest.mark.parametrize("grid", ["axb", "64x", "x64", "8", "8x8x8", "8.5x8", ""])
def test_zero_scan_rejects_a_malformed_grid(matrix_file, cli, grid):
    code, out, err = cli("zero-scan", "--grid", grid, str(matrix_file))
    assert (code, out) == (1, "")
    assert err == f"error: grid must look like \"64x64\", got {grid!r}\n"


@pytest.mark.parametrize("grid", ["0x8", "8x-1"])
def test_zero_scan_rejects_a_grid_without_points(matrix_file, cli, grid):
    code, out, err = cli("zero-scan", "--grid", grid, str(matrix_file))
    assert (code, out, err) == (1, "", "error: grid resolution must be positive\n")


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_matching_stats_rejects_non_finite_lambda(tmp_path, cli, lam):
    doc = {"d": 2, "n": 2, "edges": [[0, 0], [1, 1], [0, 1]]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("matching-stats", "--lambda", lam, str(path))
    assert code == 1
    assert out == "" and f"lam must be finite, got {lam}" in err
    assert "Warning" not in err


def test_collapse_demo(tmp_path, cli):
    path = tmp_path / "c.json"
    path.write_text('{"alphas": [[1,0],[2,0],[0.5,0.5]], "zs": [[0.3,0],[0,-0.2],[1,1]]}')
    code, out, _ = cli("collapse-demo", str(path))
    doc = json.loads(out)
    nonzero = [p for p in doc["z_star"] if p != [0.0, 0.0]]
    assert len(nonzero) <= 1
    assert doc["l1_after"] <= doc["l1_before"] + 1e-12
    before, after = doc["value_before"], doc["value_after"]
    assert math.hypot(before[0] - after[0], before[1] - after[1]) <= 1e-12


@pytest.mark.parametrize("field,item", [("alphas", "[true, false]"), ("zs", '["1", 0]')])
def test_collapse_demo_rejects_non_numbers(tmp_path, cli, field, item):
    doc = {"alphas": "[[1, 0]]", "zs": "[[0.5, 0]]"}
    doc[field] = f"[{item}]"
    path = tmp_path / "c.json"
    path.write_text(f'{{"alphas": {doc["alphas"]}, "zs": {doc["zs"]}}}')
    code, out, err = cli("collapse-demo", str(path))
    assert code == 1
    assert out == "" and "entry 0 must be a pair [re, im] of numbers" in err


@pytest.mark.parametrize("command", ["approx", "collapse-demo"])
def test_int_beyond_float_range_is_a_parse_error(tmp_path, cli, command):
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(f'{{"n": 1, "entries": [[{huge}, 0]], "alphas": [[{huge}, 0]], "zs": [[1, 0]]}}')
    code, out, err = cli(command, str(path))
    assert code == 1
    assert out == "" and err == "error: entry 0 is not finite\n"


@pytest.mark.parametrize("kind", ["matrix", "block", "tensor", "dominant"])
def test_gen_rejects_empty_instances(cli, kind):
    code, out, err = cli("gen", kind, "--n", "0")
    assert code == 1
    assert out == "" and "--n must be positive" in err


@pytest.mark.parametrize("d", ["0", "-1", "1"])
def test_gen_tensor_rejects_dimensions_below_two(cli, d):
    code, out, err = cli("gen", "tensor", "--d", d, "--n", "3")
    assert code == 1
    assert out == "" and err == 'error: "d" must be an integer >= 2\n'


ARRAY_GENERATORS = ["block_extremal_matrix", "random_admissible_tensor",
                    "random_dominant_matrix"]


@pytest.mark.parametrize("kind, size, entries", [
    ("tensor", ["--d", "6", "--n", "60"], "60^6"),
    ("tensor", ["--d", "100000000", "--n", "10"], "10^100000000"),
    ("matrix", ["--n", "31623"], "31623^2"),
    ("block", ["--n", "40000"], "40000^2"),
    ("dominant", ["--n", "40000"], "40000^2"),
])
def test_gen_charges_the_array_before_drawing(monkeypatch, capsys, kind, size, entries):
    # nothing is drawn: a real draw would ask for GBs
    for name in ARRAY_GENERATORS:
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("drew"))
    assert cli_module.run(["gen", kind, *size]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: gen {kind} needs n^d = {entries} entries, cap is {taylor.WORK_CAP}\n"


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 14.9 GiB for an array", "Unable to allocate 14.9 GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_exits_3_with_one_line(monkeypatch, capsys, message, line):
    # n^2 = 999,950,884 is within the cap, so the (failing) generator runs
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli_module, "random_admissible_tensor", exhausted)
    assert cli_module.run(["gen", "matrix", "--n", "31622"]) == 3
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_exit_code_parse_error(tmp_path, cli):
    missing = tmp_path / "nope.json"
    code, _, err = cli("exact", str(missing))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "entries": [[1,0]]}')
    code, _, _ = cli("exact", str(bad))
    assert code == 1
    notjson = tmp_path / "x.json"
    notjson.write_text("not json at all")
    code, _, _ = cli("exact", str(notjson))
    assert code == 1


def test_approx_zero_matrix_without_lambda(tmp_path, cli):
    path = tmp_path / "z.json"
    path.write_text(json_dumps(matrix_to_json(np.zeros((3, 3)))))
    code, out, err = cli("approx", str(path))
    assert code == 0, err
    assert out == (
        '{"m": 0, "value": [0, 0], "error_bound": 0, "g_derivs": [[1, 0]], '
        '"f_derivs": [[0, 0]]}\n'
    )


@pytest.mark.parametrize("field,label", [("edges", 1.7), ("m0", True)])
def test_matching_stats_rejects_non_integer_labels(tmp_path, cli, field, label):
    doc = {"d": 2, "n": 2, "edges": [[0, 0], [1, 1], [0, 1]], "m0": [[0, 0], [1, 1]]}
    doc[field][0] = [label, 0] if field == "edges" else [0, label]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("matching-stats", "--lambda", "0.4", str(path))
    assert code == 1
    assert out == "" and "integer vertex labels" in err


def test_exit_code_inadmissible(tmp_path, cli):
    doc = matrix_to_json(np.full((3, 3), 0.5))
    path = tmp_path / "m.json"
    path.write_text(json_dumps(doc))
    code, _, err = cli("approx", str(path))
    assert code == 2
    assert "admissible" in err


# first-part vertex 0 has degree Delta = 3
DELTA_3 = {"d": 3, "n": 3, "edges": [[0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 1, 2], [0, 2, 1]]}


@pytest.mark.parametrize(
    "argv,instance,code",
    [
        (["approx"], "matrix", 0),
        (["approx", "--lambda", "0.9"], "matrix", 0),
        (["approx", "--lambda", "0.2"], "matrix", 2),
        (["approx"], "inadmissible", 2),
        (["approx", "--lambda", "0.9"], "inadmissible", 2),
        (["matching-stats", "--lambda", "0.4"], "hypergraph", 0),
        (["matching-stats", "--lambda", "0.8"], "hypergraph", 2),
    ],
)
def test_each_call_checks_dominance_once(tmp_path, monkeypatch, capsys, argv, instance, code):
    docs = {
        "matrix": matrix_to_json(np.diag([0.3, -0.2j, 0.1]) + 0.05),
        "inadmissible": matrix_to_json(np.full((3, 3), 0.5)),
        "hypergraph": DELTA_3,
    }
    path = tmp_path / "in.json"
    path.write_text(json_dumps(docs[instance]))
    calls, real = [], dominance.check_dominance_tensor

    def counted(a):
        calls.append(a.shape)
        return real(a)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("permtaylor"):
            if hasattr(module, "check_dominance_tensor"):
                monkeypatch.setattr(module, "check_dominance_tensor", counted)
    assert cli_module.run([*argv, str(path)]) == code
    assert len(calls) == 1
    if argv[0] == "matching-stats" and code == 2:
        assert capsys.readouterr().err == (
            "error: lam = 0.8 is too large: lam^2 (Delta - 1) = 1.28 must be below 1\n"
        )


def test_exit_code_size_cap(tmp_path, cli):
    code, out, _ = cli("gen", "tensor", "--d", "3", "--n", "4", "--seed", "0")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, _, _ = cli("exact", "--work-cap", "10", str(path))
    assert code == 3


def test_exact_matrix_respects_work_cap(tmp_path, cli):
    # Ryser's Gray-code walk over n = 12 takes n^2 2^n = 589,824 row-sum updates
    code, out, _ = cli("gen", "matrix", "--n", "12", "--seed", "0")
    path = tmp_path / "m.json"
    path.write_text(out)
    code, out, err = cli("exact", "--work-cap", "1000", str(path))
    assert code == 3
    assert out == "" and "cap is 1000" in err


def test_exact_matrix_cap_charges_every_row_sum(tmp_path, monkeypatch, capsys):
    # n = 22 needs n^2 2^n = 2.0e9 steps, above the default cap of 10^9
    monkeypatch.setattr(exact, "_ryser_core", lambda rows: pytest.fail("Ryser ran"))
    path = tmp_path / "m.json"
    path.write_text(json_dumps(matrix_to_json(np.zeros((22, 22)))))
    assert cli_module.run(["exact", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "n^2 2^n = 2030043136 steps, cap is 1000000000" in err


@pytest.mark.parametrize("grid, cap, steps", [
    ("8x16", ["--work-cap", "800"], 896),
    ("30000x30000", [], 6_300_000_000),
], ids=["small-cap", "default-cap"])
def test_zero_scan_charges_the_grid_before_any_work(matrix_file, monkeypatch, capsys, grid,
                                                    cap, steps):
    # Horner's rule over the n + 1 = 7 coefficients at every grid point
    monkeypatch.setattr(taylor, "component_sums", lambda *a: pytest.fail("minor sums ran"))
    assert cli_module.run(["zero-scan", "--grid", grid, *cap, str(matrix_file)]) == 3
    out, err = capsys.readouterr()
    limit = cap[1] if cap else taylor.WORK_CAP
    assert out == ""
    assert err == f"error: zero-scan grid needs radial x angular x (n + 1) = {steps} steps, " \
        f"cap is {limit}\n"


def test_zero_scan_rejects_a_radius_that_overflows(tmp_path, capsys):
    # with warnings as errors, an overflow warning that leaked would fail the call
    assert cli_module.run(["gen", "matrix", "--n", "5", "--lambda", "0.5"]) == 0
    path = tmp_path / "m.json"
    path.write_text(capsys.readouterr().out)
    assert cli_module.run(["zero-scan", "--grid", "2x2", "--radius", "1e308", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: zero-scan radius 1e+308 is too large: the polynomial overflows " \
        "on the grid\n"
    # a large radius whose values stay finite still scans
    assert cli_module.run(["zero-scan", "--grid", "2x2", "--radius", "1e30", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["radius"] == 1e30


# finite entries whose slice masses or minor sums overflow float64
OVERFLOWING = {
    "mass": {"n": 2, "entries": [[1e308, 0], [1e308, 0], [0, 0], [0, 0]]},
    "minors": {"n": 2, "entries": [[1e200, 0]] * 4},
}


@pytest.mark.parametrize("instance, argv, code, line", [
    ("mass", ["zero-scan", "--grid", "2x2"], 1,
     "the l1 mass of axis-0 slice 0 overflows float64"),
    ("mass", ["dominance"], 1, "the l1 mass of axis-0 slice 0 overflows float64"),
    ("mass", ["approx"], 2, "input is not admissible (effective lambda inf >= 1)"),
    ("minors", ["zero-scan", "--grid", "2x2"], 1, "minor sum c_2 overflows float64"),
    ("minors", ["zero-scan", "--grid", "2x2", "--radius", "1"], 1,
     "minor sum c_2 overflows float64"),
    ("minors", ["exact"], 1, "the permanent per(I + A) overflows float64"),
    ("minors", ["exact", "--raw"], 1, "the permanent per(A) overflows float64"),
], ids=["mass-zero-scan", "mass-dominance", "mass-approx", "minors-zero-scan",
        "minors-zero-scan-radius", "minors-exact", "minors-exact-raw"])
def test_overflowing_sums_end_in_one_error_line(tmp_path, capsys, instance, argv, code, line):
    # with warnings as errors, an overflow warning that leaked would fail the call
    path = tmp_path / "in.json"
    path.write_text(json.dumps(OVERFLOWING[instance]))
    assert cli_module.run([*argv, str(path)]) == code
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_exact_names_an_overflowing_tensor_permanent(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "n": 2, "entries": [[1e200, 0]] * 8}))
    assert cli_module.run(["exact", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: the permanent PER(I + A) overflows float64\n")


def test_approx_admissibility_stays_on_raw_row_sums(tmp_path, capsys):
    # rho(|A|) = sqrt(0.12) < 1 would admit this matrix, but its first row sum is 1.2
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": 2, "entries": [[0, 0], [1.2, 0], [0.1, 0], [0, 0]]}))
    assert cli_module.run(["approx", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: input is not admissible (effective lambda 1.2 >= 1)\n"
    )


def test_approx_names_the_lambda_of_its_bound(tmp_path, capsys):
    assert cli_module.run(["gen", "matrix", "--n", "16", "--lambda", "0.4", "--seed", "1"]) == 0
    path = tmp_path / "m16.json"
    path.write_text(capsys.readouterr().out)
    assert cli_module.run(["approx", str(path)]) == 0
    out, err = capsys.readouterr()
    res = approx_log_permanent(matrix_from_json(json.loads(path.read_text())),
                               ApproxConfig(None, 0.01))
    assert json.loads(out)["m"] == res.order_m == 5
    assert err == (
        f"n = 16, components 1 (largest 16), order m = 5, certified bound "
        f"{res.error_bound:.3g}, lambda {res.lam:.4g} (raw {res.raw_lam:.4g})\n"
    )
    assert res.lam < res.raw_lam


def test_dominance_scaled_names_an_overflowing_relative_mass(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1e-300, 0], [1e10, 0], [1e10, 0], [1, 0]]}))
    assert cli_module.run(["dominance", "--scaled", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: the relative l1 mass of axis-0 slice 0 overflows float64\n"
    )


def test_perm_poly_derivs_names_the_sum_that_overflows():
    with pytest.raises(ValueError, match="^minor sum c_2 overflows float64$"):
        taylor.perm_poly_derivs(np.full((3, 3), 1e200), 3)
    # three 1 x 1 components: c_3 = x^3 is finite, g^(3)(0) = 6 x^3 is not
    x = 1e308 ** (1 / 3)
    with pytest.raises(ValueError, match=r"^derivative g\^\(3\)\(0\) = 3! c_3 overflows"):
        taylor.perm_poly_derivs(np.diag([x, x, x]), 3)


def test_matching_stats_charges_the_dense_encoding(tmp_path, monkeypatch, capsys):
    # the diagonal matching alone, d = 3 and n = 12: its dense tensor has 1,728 entries
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"d": 3, "n": 12, "edges": [[i] * 3 for i in range(12)]}))
    argv = ["matching-stats", "--lambda", "0.4", str(path)]
    with monkeypatch.context() as m:
        m.setattr(hypergraph, "encode_tensor", lambda h: pytest.fail("encoded"))
        assert cli_module.run([*argv, "--work-cap", "1727"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dense encoding of the hypergraph needs n^d = 12^3 tensor entries, " \
        "cap is 1727\n"
    assert cli_module.run([*argv, "--work-cap", "1728"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == [1.0, 0.0]


def test_orders_above_170_exit_with_size_cap(tmp_path, cli):
    code, out, _ = cli("gen", "block", "--n", "6", "--lambda", "0.98")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, out, err = cli("approx", str(path))
    assert code == 3
    assert out == "" and "m = 239 is above the limit of 170" in err
    code, out, err = cli("approx", "--order", "170", str(path))
    assert code == 0, err
    assert json.loads(out)["m"] == 170


def test_output_round_trips_through_parser(matrix_file, cli):
    code, out, _ = cli("gen", "matrix", "--n", "5", "--seed", "9")
    m = matrix_from_json(json.loads(out))
    assert m.shape == (5, 5)


def test_pretty_output(matrix_file, cli):
    code, out, err = cli("approx", "--pretty", str(matrix_file))
    assert code == 0, err
    assert "error_bound" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


# one representative argv per command, after the command name
COMMAND_ARGVS = {
    "exact": ["m.json", "--raw", "--work-cap", "5"],
    "approx": ["m.json", "--lambda", "0.3", "--epsilon", "0.1", "--order", "3", "--threads", "2",
               "--pretty"],
    "dominance": ["m.json", "--scaled"],
    "matching-stats": ["h.json", "--lambda", "0.4", "--epsilon", "0.05"],
    "zero-scan": ["m.json", "--radius", "1.5", "--grid", "8x8", "--work-cap", "7"],
    "collapse-demo": ["c.json", "--pretty"],
    "gen": ["hypergraph", "--n", "4", "--d", "3", "--lambda", "0.2", "--sign", "minus",
            "--extra", "2", "--delta-cap", "2", "--seed", "5", "--pretty"],
}


def test_command_argvs_cover_every_command():
    assert list(COMMAND_ARGVS) == list(cli_module.COMMANDS)


@pytest.mark.parametrize("name", list(COMMAND_ARGVS))
def test_command_parser_matches_the_full_tree(name):
    # the full tree still parses every command, and the parser of the
    # command alone reads its argv the same way
    full = cli_module.build_parser()
    (sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    alone = cli_module.build_parser(name)
    assert alone.format_help() == sub.choices[name].format_help()
    assert alone.format_usage() == sub.choices[name].format_usage()
    argv = COMMAND_ARGVS[name]
    from_tree = vars(full.parse_args([name, *argv]))
    assert from_tree.pop("command") == name
    assert vars(alone.parse_args(argv)) == from_tree


def test_a_fresh_cache_builds_the_named_commands_parser_once(matrix_file, monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli_module.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli_module.run(["approx", str(matrix_file)]) == 0
    assert built == ["permtaylor approx"]
    assert cli_module.run(["approx", "--epsilon", "0.1", str(matrix_file)]) == 0
    assert built == ["permtaylor approx"]
    assert [list(json.loads(line))[0] for line in capsys.readouterr().out.splitlines()] == [
        "m", "m"]


def test_options_do_not_carry_over_to_the_next_call(matrix_file, monkeypatch, capsys):
    seen, approx = [], cli_module.approx_log_permanent

    def recording_approx(arr, cfg, **kwargs):
        seen.append(cfg.lam)
        return approx(arr, cfg, **kwargs)

    monkeypatch.setattr(cli_module, "approx_log_permanent", recording_approx)
    assert cli_module.run(["approx", "--lambda", "0.5", str(matrix_file)]) == 0
    assert cli_module.run(["approx", str(matrix_file)]) == 0
    assert seen == [0.5, None]


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


HELP_AND_USAGE_ERRORS = [
    ["-h"],
    [],
    ["bogus"],
    *([name, "-h"] for name in COMMAND_ARGVS),
    ["approx"],
    ["approx", "m.json", "--bogus"],
    ["approx", "m.json", "--order", "two"],
    ["matching-stats", "h.json"],
    ["gen", "cube"],
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=lambda argv: "_".join(argv) or "none")
def test_cached_parsers_print_what_a_fresh_parser_prints(argv, monkeypatch, capsys):
    # the cached parser is built at one terminal width and used at another:
    # help is sized when it is formatted, so only the width in force counts
    monkeypatch.setenv("COLUMNS", "120")
    first = _exit_of(cli_module.run, argv, capsys)
    monkeypatch.setenv("COLUMNS", "48")
    command = argv[0] if argv and argv[0] in cli_module.COMMANDS else None
    fresh = cli_module.build_parser.__wrapped__(command)
    expected = _exit_of(fresh.parse_args, argv[1:] if command else argv, capsys)
    assert _exit_of(cli_module.run, argv, capsys) == expected
    assert first[0] == expected[0] == (0 if "-h" in argv else 2)
    if "-h" in argv:
        assert first[1] != expected[1]


def test_main_reads_sys_argv(matrix_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["permtaylor", "approx", str(matrix_file)])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["m"] >= 1


def test_unrecognized_option_exits_2_under_the_commands_usage(matrix_file, cli):
    code, out, err = cli("approx", str(matrix_file), "--bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: permtaylor approx ")
    assert err.endswith("permtaylor approx: error: unrecognized arguments: --bogus\n")
