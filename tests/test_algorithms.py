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
    reference_exact_alpha,
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


def _ag23():
    """The affine plane AG(2,3): the points of GF(3)^2, and the lines
    {a, b, -a-b}, the Steiner triple system on 9 points."""
    points = [(x, y) for x in range(3) for y in range(3)]
    lines = {
        frozenset((a, b, ((-a[0] - b[0]) % 3, (-a[1] - b[1]) % 3)))
        for a in points
        for b in points
        if a != b
    }
    return hi.Hypergraph(9, [[3 * x + y for x, y in line] for line in lines])


def test_ag23_shows_where_the_theorem_stops():
    # 3-uniform, linear and double-linear, but not triangle-free: the
    # potential exceeds alpha, and the greedy's first step loses
    h = _ag23()
    assert (h.n, h.m) == (9, 12)
    report = hi.property_report(h)
    assert report.uniform_r == 3 and report.linear and report.double_linear
    assert not report.triangle_free
    pot = hi.potential(h, 3)
    assert pot == Fraction(841, 209)
    res = hi.exact_alpha(h)
    assert res.exact and res.alpha == 4 == enumerate_alpha(h) < pot
    cert = hi.greedy_extract(h, 3, unsafe=True)
    assert [s.delta for s in cert.steps] == [Fraction(-5, 209), 0, 0, 0]
    assert len(cert.independent_set) == 4 < math.ceil(pot)
    assert hi.verify_independent(h, cert.independent_set)[0]


def test_fano_keeps_the_bound_off_the_hypotheses():
    # the Fano plane has triangles too, but no step loses, so the
    # greedy still reaches ceil(potential)
    h = hi.fano()
    pot = hi.potential(h, 3)
    assert pot == Fraction(196, 57)
    cert = hi.greedy_extract(h, 3, unsafe=True)
    assert [s.delta for s in cert.steps] == [Fraction(32, 57), 0, 0, 0]
    assert len(cert.independent_set) == math.ceil(pot) == 4
    assert hi.exact_alpha(h).alpha == 4 >= math.ceil(pot)


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
@given(raw_hypergraphs(), st.sampled_from((2, 3, 4, 5, 40)))
def test_greedy_unsafe_matches_reference_oracle(h, r):
    # a vertex's cached slots must be rebuilt whenever a step deletes
    # one of its live edges, also on short, long and overlapping edges;
    # the oracle builds all r - 1 slots, the greedy only those an edge fills
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
    for bad in (-1, 2.5, 3.0, True, False, "7"):
        with pytest.raises(ValueError, match="budget"):
            hi.exact_alpha(hi.fano(), budget=bad)


# single and loose-path-3-3 are solved at the root, so for them the
# budget = nodes - 1 check below is the budget-0 check; the loose cycle
# (3 nodes) and the n=60 instance (171 nodes) keep it a real cut
BOUNDARY_CASES = {
    "fano": hi.fano,
    "loose-path-3-3": lambda: hi.loose_path(3, 3),
    "single": lambda: SINGLE,
    "random-r3-n40-s1": lambda: first_complete(40, 3, 1),
    "random-r3-n44-s2": lambda: first_complete(44, 3, 2),
    "loose-cycle-5-3": lambda: hi.loose_cycle(5, 3),
    "random-r3-n60": lambda: first_complete(60, 3),
}


@pytest.mark.parametrize("label", BOUNDARY_CASES)
def test_exact_alpha_budget_boundary(label):
    h = BOUNDARY_CASES[label]()
    res = hi.exact_alpha(h)
    assert res.exact
    # a budget of exactly the nodes a full search takes is enough
    assert hi.exact_alpha(h, budget=res.nodes) == res
    # one node fewer stops on the last node, counted before the check
    budget = res.nodes - 1
    cut = hi.exact_alpha(h, budget=budget)
    assert not cut.exact and cut.nodes == budget + 1
    assert len(cut.independent_set) == cut.alpha <= res.alpha
    assert hi.verify_independent(h, cut.independent_set) == (True, None)
    assert hi.exact_alpha(h, budget=0) == (0, (), False, 1)


BUDGETS = st.sampled_from([None, 0, 1, 7])


@settings(max_examples=200, deadline=None)
@given(raw_hypergraphs(), BUDGETS)
def test_exact_alpha_matches_search_order_oracle_on_arbitrary_input(h, budget):
    # same nodes in the same order: the whole result agrees, nodes included
    assert hi.exact_alpha(h, budget) == reference_exact_alpha(h, budget)


@settings(max_examples=60, deadline=None)
@given(instances(r_max=4, n_max=24), BUDGETS)
def test_exact_alpha_matches_search_order_oracle(hr, budget):
    h, _ = hr
    assert hi.exact_alpha(h, budget) == reference_exact_alpha(h, budget)


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


@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_exact_alpha_solves_trees_at_the_root(k, r):
    # the leaf rule peels a hypertree one edge at a time: no branching;
    # a loose path is hit by every other shared vertex, a matching needs
    # one vertex per edge
    for h, tau in ((hi.loose_path(k, r), (k + 1) // 2), (hi.matching(k, r), k)):
        res = hi.exact_alpha(h)
        assert res.exact and res.nodes == 1
        assert res.alpha == h.n - tau
        assert hi.verify_independent(h, res.independent_set) == (True, None)


def test_exact_alpha_node_count_n50():
    # a node count repeats exactly, so this guards the bound, the rules
    # and the branching rule without timing; the trivial bound
    # |included| + |undecided| alone needs 455,539 nodes, branching
    # inside the first smallest live edge only needs 1,517, packing in
    # index order rather than smallest first 659, and the search without
    # the unit and leaf rules 447
    res = hi.exact_alpha(first_complete(50, 3))
    assert res.exact
    assert res.nodes <= 100


def test_exact_alpha_node_count_n80():
    # branching inside the first smallest live edge only needs 30,233
    # nodes, packing in index order rather than smallest first 7,705,
    # and the search without the unit and leaf rules 3,785
    res = hi.exact_alpha(first_complete(80, 3))
    assert res.exact
    assert res.nodes <= 500


def test_exact_alpha_node_count_n100():
    # packing in index order rather than smallest first needs 21,415
    # nodes, and the search without the unit and leaf rules 11,645
    res = hi.exact_alpha(first_complete(100, 3))
    assert res.exact
    assert res.nodes <= 650


def test_exact_alpha_node_count_n120():
    # the search without the unit and leaf rules needs 236,757 nodes
    res = hi.exact_alpha(first_complete(120, 3))
    assert res.exact
    assert res.nodes <= 2650


def test_exact_alpha_node_count_r4_n80():
    # r=4 with m = 60 edges fills at n = 80; the search without the unit
    # and leaf rules needs 80,613 nodes
    h, complete = hi.generate(hi.InstanceSpec("random", n=80, r=4, m=60, seed=0))
    assert complete
    res = hi.exact_alpha(h)
    assert res.exact
    assert res.nodes <= 6800


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
