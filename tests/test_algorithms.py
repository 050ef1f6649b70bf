"""Greedy extraction certificates, exact search, and verification."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hyperind as hi
from hyperind.algorithms import _Residual
from hyperind.errors import HypothesisViolated, InvalidVertex
from oracles import (
    enumerate_alpha,
    reference_delta,
    reference_greedy,
    reference_slots,
)
from strategies import instances, raw_hypergraphs
from test_golden_certificates import first_complete

LOOSE = hi.Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
SINGLE = hi.Hypergraph(3, [(0, 1, 2)])


# --- candidate deltas -------------------------------------------------------
# reference_delta is the definition; the greedy's own deltas meet it
# here for single candidates and through reference_greedy for whole runs


def test_candidate_delta_single_edge():
    # 1 + f(0) - 3 f(1) = 1 + 1 - 2 = 0
    assert reference_delta(SINGLE, 3, 0, {1}) == 0
    assert reference_delta(SINGLE, 3, 0, {2}) == 0


def test_candidate_delta_isolated_pseudo_candidate():
    h = hi.Hypergraph(4, [(0, 1, 2)])
    assert reference_delta(h, 3, 3, ()) == 0


def test_candidate_delta_loose_path_pin():
    assert reference_delta(LOOSE, 3, 2, {0, 3}) == Fraction(-2, 9)
    assert reference_delta(LOOSE, 3, 0, {2}) == Fraction(7, 9)


def _candidates(h, r):
    """(x, slot index, slot, delta) for every slot of every vertex;
    an isolated vertex yields the empty pseudo-slot."""
    out = []
    for x in range(h.n):
        slots = reference_slots(h.edges, x, r) if h.degree(x) else (frozenset(),)
        for j, rset in enumerate(slots):
            out.append((x, j, rset, reference_delta(h, r, x, rset)))
    return out


def test_candidate_deltas_loose_path():
    cands = _candidates(LOOSE, 3)
    assert len(cands) == 10  # five vertices, two slots each
    deltas = [delta for _, _, _, delta in cands]
    assert max(deltas) == Fraction(7, 9)
    assert min(deltas) == Fraction(-2, 9)
    assert sum(deltas) == Fraction(16, 9)  # the averaging total is positive
    by_key = {(x, j): delta for x, j, _, delta in cands}
    assert by_key[(2, 0)] == Fraction(-2, 9)
    assert by_key[(0, 1)] == Fraction(7, 9)


def _assert_deltas_match_reference(h, r):
    """Every slot delta of every vertex with slots is the oracle's, and
    scoring leaves the live degrees as it found them."""
    res = _Residual(h, r)
    deg = list(res.deg)
    for x in range(h.n):
        slots = res.slots(x)
        got = [Fraction(d, res.scale) for d in res.deltas(x)]
        assert res.deg == deg
        assert got == [reference_delta(h, r, x, rset) for rset in slots]


@settings(max_examples=60, deadline=None)
@given(instances(n_max=16))
def test_candidate_delta_is_potential_change(hr):
    # the greedy lowers live degrees around each vertex and its slots;
    # the oracle takes the potential of the whole graph before and after
    _assert_deltas_match_reference(*hr)


@settings(max_examples=150, deadline=None)
@given(raw_hypergraphs(), st.sampled_from((2, 3, 4)))
def test_candidate_deltas_exact_on_arbitrary_input(h, r):
    # short edges fill their leftover slots with their last vertex, a
    # vertex on a one-vertex edge has no slots, and an edge may meet a
    # slot twice or pass through x and the slot: the delta stays exact
    _assert_deltas_match_reference(h, r)


@settings(max_examples=40, deadline=None)
@given(instances(n_max=16))
def test_max_candidate_delta_non_negative(hr):
    h, r = hr
    cands = _candidates(h, r)
    assert cands  # every vertex yields at least a pseudo-candidate
    assert max(d for _, _, _, d in cands) >= 0


@settings(max_examples=60, deadline=None)
@given(instances())
def test_greedy_slots_match_reference_slots(hr):
    # the greedy's slots, on all edges live, are the oracle's
    h, r = hr
    res = _Residual(h, r)
    for x in range(h.n):
        if h.degree(x):
            want = [tuple(sorted(s)) for s in reference_slots(h.edges, x, r)]
            assert res.slots(x) == want


# --- greedy extraction ------------------------------------------------------


def test_greedy_loose_path_trace():
    cert = hi.greedy_extract(LOOSE, 3)
    assert cert.independent_set == (0, 1, 3, 4)
    assert cert.guarantee == Fraction(29, 9)
    assert cert.guaranteed and cert.r == 3
    first = cert.steps[0]
    assert (first.x, first.slot) == (0, (2,))
    assert first.potential_before == Fraction(29, 9)
    assert first.potential_after == 3
    assert first.delta == Fraction(7, 9)
    assert [s.x for s in cert.steps] == [0, 1, 3, 4]
    assert all(s.slot == () for s in cert.steps[1:])  # isolated harvest
    assert cert.steps[-1].potential_after == 0


def test_greedy_certificate_json():
    got = hi.greedy_extract(LOOSE, 3).to_json()
    assert got == (
        '{"independent_set": [0, 1, 3, 4], "guarantee": "29/9", '
        '"steps": [{"x": 0, "R": [2], "delta": "7/9"}, '
        '{"x": 1, "R": [], "delta": "0/1"}, '
        '{"x": 3, "R": [], "delta": "0/1"}, '
        '{"x": 4, "R": [], "delta": "0/1"}], "guaranteed": true}'
    )
    payload = json.loads(got)
    assert payload["independent_set"] == sorted(payload["independent_set"])


def test_greedy_single_edge():
    cert = hi.greedy_extract(SINGLE, 3)
    assert len(cert.independent_set) == 2 == cert.guarantee


def test_greedy_matching_attains_guarantee_exactly():
    for k, r in ((3, 3), (4, 2), (2, 5)):
        cert = hi.greedy_extract(hi.matching(k, r), r)
        assert cert.guarantee == k * (r - 1)
        assert len(cert.independent_set) == k * (r - 1)
        assert all(s.delta == 0 for s in cert.steps)


def test_greedy_edgeless_and_empty():
    cert = hi.greedy_extract(hi.Hypergraph(4, []), 3)
    assert cert.independent_set == (0, 1, 2, 3)
    assert cert.guarantee == 4
    cert = hi.greedy_extract(hi.Hypergraph(0, []), 2)
    assert cert.independent_set == () and cert.guarantee == 0
    assert cert.steps == () and cert.guaranteed


def test_greedy_rejects_bad_inputs():
    with pytest.raises(HypothesisViolated):
        hi.greedy_extract(hi.fano(), 3)  # triangle
    with pytest.raises(HypothesisViolated):
        hi.greedy_extract(LOOSE, 2)  # wrong uniformity
    with pytest.raises(HypothesisViolated):
        hi.greedy_extract(hi.Hypergraph(4, [(0, 1, 2), (0, 1, 3)]), 3)


def test_greedy_unsafe_override():
    cert = hi.greedy_extract(hi.fano(), 3, unsafe=True)
    assert not cert.guaranteed
    ok, _ = hi.verify_independent(hi.fano(), cert.independent_set)
    assert ok
    assert cert == hi.greedy_extract(hi.fano(), 3, unsafe=True)  # deterministic
    # on a hypothesis-satisfying input the override only flips the flag
    safe = hi.greedy_extract(LOOSE, 3)
    loose_unsafe = hi.greedy_extract(LOOSE, 3, unsafe=True)
    assert not loose_unsafe.guaranteed
    assert loose_unsafe.independent_set == safe.independent_set
    assert loose_unsafe.steps == safe.steps


def test_greedy_unsafe_short_and_one_vertex_edges():
    # the kept 0 takes slot (2,): the short edge's last vertex fills the
    # slots it leaves over, so 4 cannot be kept with 0 and 2
    h = hi.Hypergraph(6, [(0, 2, 4)])
    cert = hi.greedy_extract(h, 4, unsafe=True)
    assert cert.independent_set == (0, 1, 3, 4, 5)
    assert hi.verify_independent(h, cert.independent_set) == (True, None)
    # 0 lies on a one-vertex edge, so it is never kept
    h = hi.Hypergraph(3, [(0,), (1, 2)])
    cert = hi.greedy_extract(h, 2, unsafe=True)
    assert cert.independent_set == (1,)
    assert [(s.x, s.slot) for s in cert.steps] == [(1, (2,))]


@settings(max_examples=200, deadline=None)
@given(raw_hypergraphs(), st.sampled_from((2, 3, 4)))
def test_greedy_unsafe_result_is_independent(h, r):
    cert = hi.greedy_extract(h, r, unsafe=True)
    assert hi.verify_independent(h, cert.independent_set) == (True, None)


@settings(max_examples=150, deadline=None)
@given(raw_hypergraphs(), st.sampled_from((2, 3, 4)))
def test_greedy_unsafe_matches_reference_oracle(h, r):
    # a vertex's cached slots must be rebuilt whenever a step deletes
    # one of its live edges, also on short, long and overlapping edges
    cert = hi.greedy_extract(h, r, unsafe=True)
    assert cert.steps == reference_greedy(h, r, unsafe=True)


def test_greedy_deterministic():
    h = hi.loose_path(7, 3)
    assert hi.greedy_extract(h, 3) == hi.greedy_extract(h, 3)


@settings(max_examples=25, deadline=None)
@given(instances(n_max=18))
def test_greedy_matches_reference_oracle(hr):
    h, r = hr
    cert = hi.greedy_extract(h, r)
    # the oracle recounts everything per step and asserts residual closure
    assert cert.steps == reference_greedy(h, r)
    ok, _ = hi.verify_independent(h, cert.independent_set)
    assert ok
    assert len(cert.independent_set) >= math.ceil(cert.guarantee)
    assert len(cert.steps) == len(cert.independent_set)
    assert all(s.delta >= 0 for s in cert.steps)
    # the potential chain telescopes from the guarantee down to zero
    if cert.steps:
        assert cert.steps[0].potential_before == cert.guarantee
        assert cert.steps[-1].potential_after == 0
        for a, b in zip(cert.steps, cert.steps[1:]):
            assert a.potential_after == b.potential_before


# --- exact alpha ------------------------------------------------------------


def test_exact_alpha_examples():
    assert hi.exact_alpha(SINGLE).alpha == 2
    res = hi.exact_alpha(LOOSE)
    assert res.alpha == 4 and res.exact
    ok, _ = hi.verify_independent(LOOSE, res.independent_set)
    assert ok and len(res.independent_set) == 4
    fano = hi.exact_alpha(hi.fano())
    assert fano.alpha == 4 == enumerate_alpha(hi.fano())
    ok, _ = hi.verify_independent(hi.fano(), fano.independent_set)
    assert ok


def test_exact_alpha_trivial_inputs():
    res = hi.exact_alpha(hi.Hypergraph(0, []))
    assert (res.alpha, res.independent_set, res.exact) == (0, (), True)
    res = hi.exact_alpha(hi.Hypergraph(5, []))
    assert res.alpha == 5 and res.exact and res.nodes == 1


def test_exact_alpha_budget():
    res = hi.exact_alpha(hi.fano(), budget=2)
    assert not res.exact
    assert res.alpha <= 4
    ok, _ = hi.verify_independent(hi.fano(), res.independent_set)
    assert ok and len(res.independent_set) == res.alpha
    assert hi.exact_alpha(hi.fano(), budget=10**6).exact
    with pytest.raises(ValueError):
        hi.exact_alpha(hi.fano(), budget=-1)


@settings(max_examples=30, deadline=None)
@given(instances(r_max=3, n_max=14))
def test_exact_alpha_matches_enumeration(hr):
    h, _ = hr
    res = hi.exact_alpha(h)
    assert res.exact
    assert res.alpha == enumerate_alpha(h)
    ok, _ = hi.verify_independent(h, res.independent_set)
    assert ok and len(res.independent_set) == res.alpha


@settings(max_examples=200, deadline=None)
@given(raw_hypergraphs())
def test_exact_alpha_matches_enumeration_on_arbitrary_input(h):
    # the packing bound must hold for mixed sizes and one-vertex edges too
    res = hi.exact_alpha(h)
    assert res.exact
    assert res.alpha == enumerate_alpha(h)
    ok, _ = hi.verify_independent(h, res.independent_set)
    assert ok and len(res.independent_set) == res.alpha


def test_exact_alpha_node_count_n50():
    # a node count repeats exactly, so this guards the bound without timing;
    # the trivial bound |included| + |undecided| alone needs 455,539 nodes
    res = hi.exact_alpha(first_complete(50, 3))
    assert res.exact
    assert res.nodes <= 2000


# --- verification -----------------------------------------------------------


def test_verify_independent():
    assert hi.verify_independent(SINGLE, [0, 1]) == (True, None)
    ok, edge = hi.verify_independent(SINGLE, [0, 1, 2])
    assert not ok and edge == 0
    ok, edge = hi.verify_independent(LOOSE, [2, 3, 4])
    assert not ok and LOOSE.edges[edge] == (2, 3, 4)
    assert hi.verify_independent(LOOSE, []) == (True, None)
    with pytest.raises(InvalidVertex):
        hi.verify_independent(SINGLE, [3])
