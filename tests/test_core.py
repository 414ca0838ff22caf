import json
import math

import numpy as np
import pytest

from permtaylor import (
    ApproxConfig,
    hypergraph_from_json,
    identity_matrix,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    tensor_from_json,
    tensor_to_json,
)


def test_identity_matrix_small():
    assert identity_matrix(1).tolist() == [[1]]
    assert identity_matrix(2).tolist() == [[1, 0], [0, 1]]
    m3 = identity_matrix(3)
    assert m3.shape == (3, 3)
    assert np.array_equal(m3, np.eye(3))


def test_identity_tensor_examples():
    assert np.array_equal(identity_tensor(2, 2), identity_matrix(2))
    t = identity_tensor(3, 1)
    assert t.shape == (1, 1, 1) and t[0, 0, 0] == 1
    t2 = identity_tensor(3, 2)
    nz = np.argwhere(t2 != 0)
    assert sorted(map(tuple, nz)) == [(0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_tensor_matches_matrix(n):
    assert np.array_equal(identity_tensor(2, n), identity_matrix(n))


def test_identity_rejects_bad_sizes():
    with pytest.raises(ValueError):
        identity_matrix(0)
    with pytest.raises(ValueError):
        identity_tensor(1, 3)


def test_matrix_json_round_trip():
    m = np.array([[1 + 2j, -0.5], [0.25j, 3]])
    doc = matrix_to_json(m)
    assert doc["n"] == 2
    assert doc["entries"][1] == [-0.5, 0.0]  # row-major
    back = matrix_from_json(json.loads(json_dumps(doc)))
    assert np.array_equal(back, m)


def test_tensor_json_lexicographic_order():
    t = np.arange(8, dtype=float).reshape(2, 2, 2) + 0j
    doc = tensor_to_json(t)
    # entry at flat position i1*4 + i2*2 + i3
    assert doc["entries"][5] == [float(t[1, 0, 1].real), 0.0]
    back = tensor_from_json(doc)
    assert np.array_equal(back, t)


def test_json_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[1, 0]] * 3})
    with pytest.raises(ValueError):
        tensor_from_json({"d": 3, "n": 2, "entries": [[0, 0]] * 7})


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[math.inf, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[math.nan, 0]]})


def test_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 0, "entries": []})
    with pytest.raises(ValueError):
        tensor_from_json({"d": 1, "n": 2, "entries": [[1, 0], [1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"entries": [[1, 0]]})


N_MESSAGE = '"n" must be a positive integer'
D_MESSAGE = '"d" must be an integer >= 2'


@pytest.mark.parametrize(
    "parse,body",
    [(matrix_from_json, "entries"), (tensor_from_json, "entries"), (hypergraph_from_json, "edges")],
    ids=["matrix", "tensor", "hypergraph"],
)
@pytest.mark.parametrize(
    "key,value,message",
    [("n", True, N_MESSAGE), ("n", 0, N_MESSAGE), ("d", True, D_MESSAGE), ("d", 1, D_MESSAGE)],
    ids=["n-bool", "n-zero", "d-bool", "d-one"],
)
def test_json_headers_reject_bad_d_and_n_alike(parse, body, key, value, message):
    doc = {"d": 2, "n": 1, body: [[0, 0]]}
    doc[key] = value
    if parse is matrix_from_json and key == "d":
        # the matrix parser fixes d = 2 and never reads the key
        assert parse(doc).shape == (1, 1)
        return
    with pytest.raises(ValueError) as exc:
        parse(doc)
    assert str(exc.value) == message


def test_json_dumps_round_trips_floats():
    for x in (0.1, 1 / 3, 1.25, 123456.789e-12, -0.4):
        text = json_dumps({"x": x})
        assert json.loads(text)["x"] == x


def test_json_dumps_types():
    text = json_dumps({"a": True, "b": 3, "c": [1.5, None], "d": "s"})
    assert text == '{"a": true, "b": 3, "c": [1.5, null], "d": "s"}'


def test_approx_config_validation():
    ApproxConfig(lam=0.5, epsilon=0.01)
    assert ApproxConfig(lam=0.0, epsilon=0.01).lam == 0.0
    with pytest.raises(ValueError):
        ApproxConfig(lam=-0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        ApproxConfig(lam=1.0, epsilon=0.01)
    with pytest.raises(ValueError):
        ApproxConfig(lam=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        ApproxConfig(lam=0.5, epsilon=0.5, order_override=-1)
