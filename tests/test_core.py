import json
import math

import numpy as np
import pytest

from permtaylor import (
    ApproxConfig,
    approx_log_permanent,
    hypergraph_from_json,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    tensor_from_json,
    tensor_to_json,
    zero_scan,
)
from permtaylor.core import _checked_entries, _entries_from_json
from permtaylor.generators import random_admissible_tensor


def test_identity_tensor_examples():
    assert identity_tensor(2, 2).tolist() == [[1, 0], [0, 1]]
    t = identity_tensor(3, 1)
    assert t.shape == (1, 1, 1) and t[0, 0, 0] == 1
    t2 = identity_tensor(3, 2)
    nz = np.argwhere(t2 != 0)
    assert sorted(map(tuple, nz)) == [(0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_tensor_matches_matrix(n):
    assert np.array_equal(identity_tensor(2, n), np.eye(n))


def test_identity_rejects_bad_sizes():
    with pytest.raises(ValueError):
        identity_tensor(2, 0)
    with pytest.raises(ValueError):
        identity_tensor(1, 3)
    with pytest.raises(ValueError, match=N_MESSAGE):
        identity_tensor(2, 3.0)
    with pytest.raises(ValueError, match=D_MESSAGE):
        identity_tensor(True, 3)


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


def _floats_one_by_one(obj):
    """obj with each float as np.float64, which json_dumps renders item by item."""
    if isinstance(obj, dict):
        return {k: _floats_one_by_one(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floats_one_by_one(v) for v in obj]
    return np.float64(obj) if type(obj) is float else obj


def test_json_dumps_float_lists_match_item_rendering():
    a = random_admissible_tensor(2, 6, 0.5, np.random.default_rng(3))
    docs = [
        zero_scan(a).to_json(),
        approx_log_permanent(a, ApproxConfig(lam=0.5, epsilon=0.01)).to_json(),
        {"g_derivs": [[1.0, -0.0], [1e-300, -5e300], [0.1, 1 / 3]]},
    ]
    for doc in docs:
        assert json_dumps(doc) == json_dumps(_floats_one_by_one(doc))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1e-5, 1e16, 1e17, -1e17, 1 / 3,
               1.7976931348623157e308]


def _joined(values):
    return "[" + ", ".join(["%.17g" % v for v in values]) + "]"


@pytest.mark.parametrize("length", [1, 2, 3, 12, 64])
def test_float_lists_render_as_their_items_joined(length):
    values = [EDGE_FLOATS[i % len(EDGE_FLOATS)] for i in range(length)]
    assert json_dumps(values) == _joined(values)
    assert json_dumps(values[::-1]) == _joined(values[::-1])
    assert json.loads(json_dumps(values)) == values
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps(values + [bad])


def test_float_list_rendering_property():
    hypothesis = pytest.importorskip("hypothesis")
    floats = hypothesis.strategies.floats(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(database=None, deadline=None)
    @hypothesis.given(hypothesis.strategies.lists(floats, min_size=1, max_size=40))
    def check(values):
        assert json_dumps(values) == _joined(values)
        assert json_dumps({"row": values}) == '{"row": ' + _joined(values) + "}"

    check()


def _reference_dumps(obj) -> str:
    """json_dumps written out item by item: each float by format(x, ".17g")."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, list):
        return "[" + ", ".join(map(_reference_dumps, obj)) + "]"
    items = (_reference_dumps(str(k)) + ": " + _reference_dumps(v) for k, v in obj.items())
    return "{" + ", ".join(items) + "}"


def test_json_dumps_matches_a_reference_renderer():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.7e308, 1.7e308, 1.7976931348623157e308]
    ) | st.floats(allow_nan=False, allow_infinity=False)
    leaves = (
        st.none() | st.booleans() | st.integers() | floats | st.text(max_size=8)
        | st.lists(floats, min_size=2, max_size=2)
        | st.lists(floats, min_size=64, max_size=64)
    )
    docs = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                    max_size=6),
        max_leaves=20,
    )

    @hypothesis.settings(database=None, deadline=None, max_examples=150)
    @hypothesis.given(docs)
    def check(doc):
        assert json_dumps(doc) == _reference_dumps(doc)

    @hypothesis.settings(database=None, deadline=None, max_examples=60)
    @hypothesis.given(docs, st.sampled_from([math.nan, math.inf, -math.inf]), st.randoms())
    def check_non_finite(doc, bad, rnd):
        # the non-finite float goes into a random list of the document, or wraps it
        lists = []
        todo = [doc]
        while todo:
            x = todo.pop()
            if isinstance(x, list):
                lists.append(x)
            todo.extend(x if isinstance(x, list) else x.values() if isinstance(x, dict) else [])
        if lists:
            target = rnd.choice(lists)
            target.insert(rnd.randrange(len(target) + 1), bad)
        else:
            doc = [doc, bad]
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps(doc)

    check()
    check_non_finite()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_json_dumps_rejects_non_finite_floats(bad):
    for doc in ([1.0, bad], [[0.5, bad]], [1, bad], {"x": bad}):
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps(doc)


def test_approx_config_validation():
    ApproxConfig(lam=0.5, epsilon=0.01)
    assert ApproxConfig(lam=0.0, epsilon=0.01).lam == 0.0
    assert ApproxConfig(lam=None, epsilon=0.01).lam is None
    with pytest.raises(ValueError):
        ApproxConfig(lam=-0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        ApproxConfig(lam=1.0, epsilon=0.01)
    with pytest.raises(ValueError):
        ApproxConfig(lam=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        ApproxConfig(lam=0.5, epsilon=0.5, order_override=-1)


@pytest.mark.parametrize("order", [True, False, 2.5, -1, "3"])
def test_approx_config_rejects_an_order_that_is_not_a_non_negative_int(order):
    with pytest.raises(ValueError, match="order_override"):
        ApproxConfig(lam=0.5, epsilon=0.01, order_override=order)
    assert ApproxConfig(lam=0.5, epsilon=0.01, order_override=0).order_override == 0


def _parse_both(text):
    """(fast result or error, entry-by-entry result or error) for a JSON entries list."""
    raw = json.loads(text)
    results = []
    for parse in (_entries_from_json, _checked_entries):
        try:
            results.append(parse(raw).view(np.float64).tobytes())
        except ValueError as exc:
            results.append((type(exc), str(exc)))
    return results


def test_entries_fast_path_matches_the_loop_on_well_formed_input():
    rng = np.random.default_rng(3)
    numbers = [
        lambda: float(rng.normal()),
        lambda: int(rng.integers(-(10**6), 10**6)),
        lambda: int(rng.integers(1, 1 << 62)) << int(rng.integers(0, 900)),
        lambda: float(rng.choice([0.0, -0.0, 5e-324, 1.7976931348623157e308])),
    ]
    for size in [0, 1, 2, 7, 64, 324]:
        for _ in range(5):
            raw = [[numbers[rng.integers(4)](), numbers[rng.integers(4)]()] for _ in range(size)]
            fast, loop = _parse_both(json.dumps(raw))
            assert isinstance(fast, bytes) and fast == loop
    pairs = [(0.5, -1), (2, 3.25)]
    assert np.array_equal(_entries_from_json(pairs), _checked_entries(pairs))


PAIR = "must be a pair [re, im] of numbers"

# entries that must not be read as numbers
BAD_ENTRIES = {
    "string": ('["0.1", 0.0]', PAIR),
    "bool": ("[true, 0.0]", PAIR),
    "null": ("[0.0, null]", PAIR),
    "nested": ("[[0.5], 0.0]", PAIR),
    "short": ("[0.5]", PAIR),
    "long": ("[0.5, 0.0, 0.0]", PAIR),
    "number": ("0.5", PAIR),
    "nan": ("[NaN, 0.0]", "is not finite"),
    "infinity": ("[0.0, -Infinity]", "is not finite"),
    "huge int": ("[1" + "0" * 400 + ", 0]", "is not finite"),
}


@pytest.mark.parametrize("bad", list(BAD_ENTRIES), ids=list(BAD_ENTRIES))
@pytest.mark.parametrize("at", [0, 3, 8])
def test_entries_fast_path_rejects_what_the_loop_rejects(bad, at):
    text, message = BAD_ENTRIES[bad]
    entries = ["[0.25, -1]"] * 9
    entries[at] = text
    fast, loop = _parse_both("[" + ", ".join(entries) + "]")
    assert fast == loop
    assert fast == (ValueError, f"entry {at} {message}")
    # the first bad entry is the one reported, whatever follows it
    if at < 8:
        entries[-1] = BAD_ENTRIES["nan" if bad == "string" else "string"][0]
        assert _parse_both("[" + ", ".join(entries) + "]") == [fast, loop]
