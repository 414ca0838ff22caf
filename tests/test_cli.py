"""End-to-end CLI checks through subprocesses: schemas, exit codes, and
consistency between the approx and exact commands."""

import cmath
import json
import math

import numpy as np
import pytest

from permtaylor import json_dumps, matrix_from_json, matrix_to_json


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


@pytest.mark.parametrize("kind", ["matrix", "block", "tensor", "dominant"])
def test_gen_rejects_empty_instances(cli, kind):
    code, out, err = cli("gen", kind, "--n", "0")
    assert code == 1
    assert out == "" and "--n must be positive" in err


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


def test_exit_code_size_cap(tmp_path, cli):
    code, out, _ = cli("gen", "tensor", "--d", "3", "--n", "4", "--seed", "0")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, _, _ = cli("exact", "--work-cap", "10", str(path))
    assert code == 3


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
