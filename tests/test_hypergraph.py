"""Hypergraph encoding, matching enumeration, and the weighted count.

The permanent identity PER(I + w^2 (A - I)) = sum_M w^dist(M, M0) with
dist the symmetric-difference edge count is checked mechanically against
the backtracking enumerator on every instance; a matching with k
off-diagonal edges sits at distance 2k and contributes w^(2k).
"""

import json
import math

import numpy as np
import pytest

from permtaylor import (
    DPartiteHypergraph,
    InadmissibleInputError,
    InvalidMatchingError,
    SizeCapError,
    check_dominance_tensor,
    encode_tensor,
    enumerate_matchings,
    hypergraph_from_json,
    identity_tensor,
    matching_stats,
    normalize_base_matching,
    permanent_tensor,
)
from permtaylor.generators import random_hypergraph
from permtaylor.engine import minor_sum_work
from permtaylor.taylor import WORK_CAP, choose_order


def _diag(d, n):
    return tuple((i,) * d for i in range(n))


def _weighted_tensor(h, lam):
    t = encode_tensor(h) - identity_tensor(h.d, h.n)
    return lam * lam * t


@pytest.mark.parametrize("bad", [1.7, True, 1.0, "1", None])
def test_from_json_rejects_non_integer_labels(bad):
    good = {"d": 2, "n": 2, "edges": [[0, 0], [1, 1]], "m0": [[0, 0], [1, 1]]}
    h, m0 = hypergraph_from_json(good)
    assert h.edges == ((0, 0), (1, 1)) and m0 == [(0, 0), (1, 1)]
    for field in ("edges", "m0"):
        doc = {**good, field: [[0, 0], [1, bad]]}
        with pytest.raises(ValueError, match="integer vertex labels"):
            hypergraph_from_json(doc)


@pytest.mark.parametrize("bad", [0.9, "0", True])
def test_library_edges_need_integer_labels(bad):
    h = DPartiteHypergraph(3, 2, _diag(3, 2))
    with pytest.raises(ValueError, match="integer vertex labels"):
        normalize_base_matching(h, [(bad, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError, match="integer vertex labels"):
        DPartiteHypergraph(3, 2, ((bad, bad, bad), (1, 1, 1)))


def test_library_edges_may_be_lists():
    h = DPartiteHypergraph(3, 2, ([1, 1, 1], [0, 0, 0]))
    assert h.edges == ((0, 0, 0), (1, 1, 1))
    assert normalize_base_matching(h, [[0, 0, 0], [1, 1, 1]]).edges == h.edges


def test_encode_diagonal_is_identity():
    h = DPartiteHypergraph(3, 3, _diag(3, 3))
    assert np.array_equal(encode_tensor(h), identity_tensor(3, 3))


def test_encode_empty_and_counts():
    h = DPartiteHypergraph(3, 2, ())
    assert np.count_nonzero(encode_tensor(h)) == 0
    h2 = DPartiteHypergraph(3, 2, ((0, 0, 0), (1, 1, 1), (0, 1, 1)))
    t = encode_tensor(h2)
    assert np.count_nonzero(t) == 3
    assert t[0, 1, 1] == 1


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        DPartiteHypergraph(3, 2, ((0, 0), (1, 1, 1)))
    with pytest.raises(ValueError):
        DPartiteHypergraph(3, 2, ((0, 0, 2),))
    with pytest.raises(ValueError):
        DPartiteHypergraph(3, 2, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match='"n" must be a positive integer'):
        DPartiteHypergraph(3, 2.0, ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match='"d" must be an integer >= 2'):
        DPartiteHypergraph(3.0, 2, ((0, 0, 0), (1, 1, 1)))


def test_weighted_tensor_slice_sums_follow_degrees():
    rng = np.random.default_rng(51)
    h = random_hypergraph(3, 4, 5, rng)
    lam = 0.3
    report = check_dominance_tensor(_weighted_tensor(h, lam))
    degs = h.first_part_degrees()
    for i in range(4):
        assert report.row_sums[i] == pytest.approx(lam * lam * (degs[i] - 1))


def test_normalize_base_matching_identity():
    h = DPartiteHypergraph(3, 3, _diag(3, 3))
    assert normalize_base_matching(h, _diag(3, 3)).edges == h.edges


def test_normalize_base_matching_swaps_labels():
    h = DPartiteHypergraph(2, 2, ((0, 1), (1, 0)))
    out = normalize_base_matching(h, [(0, 1), (1, 0)])
    assert out.edges == ((0, 0), (1, 1))


def test_normalize_base_matching_planted():
    rng = np.random.default_rng(52)
    base = random_hypergraph(3, 4, 6, rng)
    # plant a non-diagonal matching by permuting labels of the diagonal
    perms = [np.arange(4)] + [rng.permutation(4) for _ in range(2)]
    edges = tuple(
        tuple(int(perms[t][e[t]]) for t in range(3)) for e in base.edges
    )
    h = DPartiteHypergraph(3, 4, edges)
    m0 = [tuple(int(perms[t][i]) for t in range(3)) for i in range(4)]
    out = normalize_base_matching(h, m0)
    assert out.has_diagonal_matching()
    assert len(out.edges) == len(h.edges)
    # relabeling preserves the multiset of distances
    dists = sorted(d for _, d in enumerate_matchings(out))
    dists_base = sorted(d for _, d in enumerate_matchings(base))
    assert dists == dists_base


def test_normalize_base_matching_unsorted_input():
    h = DPartiteHypergraph(3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 0)))
    out = normalize_base_matching(h, [(2, 0, 1), (0, 1, 2), (1, 2, 0)])
    assert out.has_diagonal_matching()
    assert len(out.edges) == 4


def test_normalize_base_matching_rejects_non_matching():
    h = DPartiteHypergraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(InvalidMatchingError):
        normalize_base_matching(h, [(0, 0), (0, 1)])  # covers vertex 0 twice
    with pytest.raises(InvalidMatchingError):
        normalize_base_matching(h, [(0, 0)])
    h2 = DPartiteHypergraph(2, 2, ((0, 0), (1, 1)))
    with pytest.raises(InvalidMatchingError):
        normalize_base_matching(h2, [(0, 1), (1, 0)])  # not edges of h2


def test_enumerate_diagonal_only():
    h = DPartiteHypergraph(3, 3, _diag(3, 3))
    assert enumerate_matchings(h) == [(_diag(3, 3), 0)]


def test_enumerate_bipartite_four_edges():
    h = DPartiteHypergraph(2, 2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    out = enumerate_matchings(h)
    assert len(out) == 2
    dists = sorted(d for _, d in out)
    # the off-diagonal matching replaces both diagonal edges, so the
    # symmetric difference has 4 edges
    assert dists == [0, 4]


def test_enumerate_cap():
    h = DPartiteHypergraph(3, 3, _diag(3, 3))
    with pytest.raises(SizeCapError):
        enumerate_matchings(h, max_edges=2)


def test_matching_identity_small():
    h = DPartiteHypergraph(2, 2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    lam = 0.4
    brute = sum(lam**d for _, d in enumerate_matchings(h))
    assert brute == pytest.approx(1 + lam**4)
    eye = identity_tensor(2, 2)
    per = permanent_tensor(eye + _weighted_tensor(h, lam))
    assert per == pytest.approx(brute)


def test_matching_identity_random():
    rng = np.random.default_rng(53)
    for _ in range(10):
        h = random_hypergraph(3, 4, int(rng.integers(2, 8)), rng, delta_cap=4)
        lam = 0.35
        brute = sum(lam**d for _, d in enumerate_matchings(h))
        eye = identity_tensor(3, 4)
        per = permanent_tensor(eye + _weighted_tensor(h, lam))
        assert abs(per - brute) <= 1e-9 * abs(brute)


def test_matching_stats_diagonal_only():
    h = DPartiteHypergraph(3, 3, _diag(3, 3))
    res = matching_stats(h, 0.4)
    assert res.value == 1
    assert res.delta == 1


def test_matching_stats_caps_a_huge_encoding_without_forming_its_size():
    # 10^5000 has more digits than Python turns into a string by default
    h = DPartiteHypergraph(5000, 10, _diag(5000, 10))
    message = ("dense encoding of the hypergraph needs n^d = 10^5000 tensor entries, "
               f"cap is {WORK_CAP}")
    with pytest.raises(SizeCapError) as caught:
        matching_stats(h, 0.4)
    assert str(caught.value) == message


def test_matching_stats_bipartite():
    h = DPartiteHypergraph(2, 2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    lam = 0.4
    res = matching_stats(h, lam, epsilon=0.01)
    want = 1 + lam**4
    assert abs(res.value - want) / want <= res.relative_error_bound
    assert res.delta == 2


def test_matching_stats_matches_enumeration():
    rng = np.random.default_rng(54)
    for _ in range(5):
        h = random_hypergraph(3, 4, 6, rng, delta_cap=4)
        lam = 0.4
        res = matching_stats(h, lam, epsilon=0.05)
        brute = sum(lam**d for _, d in enumerate_matchings(h))
        assert abs(res.value - brute) / brute <= math.expm1(0.05)
        assert res.error_bound_log <= 0.05
        assert abs(res.value.imag) < 1e-12  # all-real tensor keeps it real


def test_matching_stats_delta_counts_first_part_only():
    # part-2 vertex 0 has degree 3, but first-part degrees stay at 2
    h = DPartiteHypergraph(3, 2, ((0, 0, 0), (1, 1, 1), (0, 0, 1), (1, 0, 1)))
    res = matching_stats(h, 0.9)
    assert res.delta == 2
    assert res.admissible


def test_matching_stats_lambda_above_degree_bound():
    h = DPartiteHypergraph(3, 2, ((0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 1)))
    # Delta = 3, so lam must stay below 1/sqrt(2)
    with pytest.raises(InadmissibleInputError):
        matching_stats(h, 0.8)
    res = matching_stats(h, 0.5)
    assert res.admissible


def test_matching_stats_at_a_lambda_whose_square_overflows():
    # lam^2 = inf: the diagonal alone still counts 1, and an extra edge is inadmissible
    diagonal = DPartiteHypergraph(3, 3, _diag(3, 3))
    res = matching_stats(diagonal, 1e155)
    assert res.value == 1 and res.log_value == 0 and res.error_bound_log == 0
    extra = DPartiteHypergraph(3, 3, _diag(3, 3) + ((0, 1, 2),))
    with pytest.raises(InadmissibleInputError) as exc:
        matching_stats(extra, 1e155)
    assert str(exc.value) == "lam = 1e+155 is too large: lam^2 (Delta - 1) = inf must be below 1"
    with pytest.raises(InadmissibleInputError) as exc:
        matching_stats(extra, 3.0)
    assert str(exc.value) == "lam = 3.0 is too large: lam^2 (Delta - 1) = 9 must be below 1"


def test_matching_stats_requires_diagonal():
    h = DPartiteHypergraph(2, 2, ((0, 1), (1, 0)))
    with pytest.raises(InvalidMatchingError):
        matching_stats(h, 0.4)


def test_matching_stats_json_schema():
    h = DPartiteHypergraph(3, 2, ((0, 0, 0), (1, 1, 1)))
    doc = matching_stats(h, 0.4).to_json()
    assert list(doc) == [
        "lambda",
        "value",
        "log_value",
        "error_bound_log",
        "relative_error_bound",
        "delta",
        "admissible",
    ]


def test_random_hypergraph_with_only_the_base_matching_logs_to_zero(tmp_path, cli):
    # pruning leaves no off-diagonal entry, so PER = 1; unreduced, the
    # engine would ask for 1.35e9 ops and exit 3
    code, out, err = cli("gen", "hypergraph", "--d", "3", "--n", "10", "--seed", "1")
    assert code == 0, err
    path = tmp_path / "h.json"
    path.write_text(out)
    code, out, err = cli("matching-stats", "--lambda", "0.6", str(path))
    assert code == 0, err
    assert json.loads(out)["log_value"] == [0, 0]
    h, _ = hypergraph_from_json(json.loads(path.read_text()))
    found = enumerate_matchings(h, max_edges=len(h.edges), max_n=h.n)
    assert [dist for _, dist in found] == [0]


def test_disjoint_gadgets_run_under_the_default_cap():
    # gadget g holds vertices g, g + k and g + 2k of every part; besides
    # the diagonal it carries the perfect matchings (v, v + 1, v + 1) and
    # (v, v + 2, v + 1), taken mod 3
    k, lam = 10, 0.6
    local = [(v, v, v) for v in range(3)]
    local += [(v, (v + 1) % 3, (v + 1) % 3) for v in range(3)]
    local += [(v, (v + 2) % 3, (v + 1) % 3) for v in range(3)]
    edges = tuple(tuple(g + k * v for v in e) for g in range(k) for e in local)
    h = DPartiteHypergraph(3, 3 * k, edges)
    m = choose_order(h.n, lam * lam * 2, 0.01)
    assert minor_sum_work(h.n, 3, m) > WORK_CAP
    res = matching_stats(h, lam)
    gadget = sum(lam**dist for _, dist in enumerate_matchings(DPartiteHypergraph(3, 3, local)))
    want = gadget**k
    assert abs(res.value - want) <= res.relative_error_bound * want


def _hypergraph_without_early_stop(d, n, extra_edges, rng, delta_cap=None):
    # the generator's draw loop as it was before it stopped at full degrees
    edges = {(i,) * d for i in range(n)}
    degs = [1] * n
    attempts = added = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        e = tuple(int(v) for v in rng.integers(0, n, size=d))
        if e in edges or (delta_cap is not None and degs[e[0]] >= delta_cap):
            continue
        edges.add(e)
        degs[e[0]] += 1
        added += 1
    return tuple(sorted(edges))


class _CountingRng:
    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("d, n, extra, cap", [
    (3, 4, 6, None), (3, 3, 30, None), (3, 3, 30, 4), (2, 5, 40, None), (4, 2, 100, 3),
    (3, 6, 12, 2), (3, 5, 0, None), (3, 4, 3, 1), (5, 3, 50, None), (2, 1, 5, None),
])
def test_random_hypergraph_draws_what_it_drew_before_the_early_stop(d, n, extra, cap):
    for seed in range(3):
        want = _hypergraph_without_early_stop(d, n, extra, np.random.default_rng(seed), cap)
        got = random_hypergraph(d, n, extra, np.random.default_rng(seed), delta_cap=cap)
        assert got.edges == want


@pytest.mark.parametrize("cap, edges", [(None, 27), (2, 6), (1, 3)])
def test_random_hypergraph_stops_once_no_vertex_has_room(cap, edges):
    # without the stop, 20,000 extras took 1,000,050 draws
    rng = _CountingRng(4)
    h = random_hypergraph(3, 3, 20_000, rng, delta_cap=cap)
    assert len(h.edges) == edges
    assert rng.draws < 1_000


@pytest.mark.parametrize("extra, cap, message", [
    (-3, None, "extra_edges must be non-negative, got -3"),
    (2, 0, "delta_cap must be at least 1, got 0"),
])
def test_random_hypergraph_rejects_negative_extras_and_caps_below_one(cli, extra, cap, message):
    with pytest.raises(ValueError, match=message):
        random_hypergraph(3, 4, extra, np.random.default_rng(0), delta_cap=cap)
    argv = ["gen", "hypergraph", "--extra", str(extra)]
    code, out, err = cli(*argv, *(["--delta-cap", str(cap)] if cap is not None else []))
    assert (code, out, err) == (1, "", f"error: {message}\n")
