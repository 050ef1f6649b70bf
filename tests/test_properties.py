"""Structural predicates, their witnesses, and the bundled report."""

from __future__ import annotations

import json
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hyperind as hi
import shapes
from hyperind.errors import NotLinear
from oracles import (
    brute_linear,
    brute_nbhd_max_degree,
    brute_triangle_free,
    first_double_linear_failure,
    first_repeated_pair,
    first_triangle,
)
from strategies import raw_hypergraphs

LOOSE = hi.Hypergraph(5, [(0, 1, 2), (2, 3, 4)])


def shape(name: str, k: int) -> hi.Hypergraph:
    return hi.Hypergraph(*shapes.build(name, k))


# shapes on which a predicate can cost the square or cube of their size
BIG_EDGE = shape("big_edge", 9)
SHARED_PAIR = shape("shared_pair", 8)
BOOK = hi.Hypergraph(11, [(0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (0, 1, 8, 9, 10)])
BOOK_CHORD = hi.Hypergraph(11, list(BOOK.edges) + [(2, 5)])  # triangle (0, 2, 5)
# linear: a big edge holding two neighbours of 5, and the triangle (0, 1, 5)
BIG_EDGE_FAN = hi.Hypergraph(6, [range(5), (0, 5), (1, 5)])
EDGE_THEN_TRIANGLE = shape("edge_triangle", 9)
EDGE_PENDANTS = shape("pendants", 9)
# non-linear: the pendant shape with one edge repeating the pair {0, 1}
PENDANTS_SHARED_PAIR = hi.Hypergraph(19, list(EDGE_PENDANTS.edges) + [(0, 1, 18)])
# the same with a 2-uniform triangle after it
PENDANTS_SHARED_PAIR_TRIANGLE = shape("pair_triangle", 9)
PENDANTS_SEPARATE_PAIR = shape("separate_pair", 9)
# the same with pendant paths of length 2, which one round of peeling leaves
PENDANT_PATHS_SEPARATE_PAIR = hi.Hypergraph(
    30,
    [range(9)]
    + [(v, 9 + v) for v in range(9)]
    + [(9 + v, 18 + v) for v in range(9)]
    + [(27, 28, 29), (27, 28)],
)
STAR_PAIR = shape("star_pair", 10)
# the triangle (0, 1, 2) has every edge holding all three vertices
TRIPLE_IN_THREE = hi.Hypergraph(6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
K6 = hi.Hypergraph(6, combinations(range(6), 2))
# linear: the edge opposite the triangle's smallest vertex, 1, is the first with an apex
OPPOSITE_FIRST = hi.Hypergraph(7, [(0, 2, 3), (1, 2, 5), (1, 3, 6)])


def relabel(h: hi.Hypergraph, perm: list[int]) -> hi.Hypergraph:
    return hi.Hypergraph(h.n, [tuple(perm[v] for v in e) for e in h.edges])


# --- uniformity -------------------------------------------------------------


def test_is_uniform():
    assert hi.is_uniform(hi.Hypergraph(3, [(0, 1, 2)])) == 3
    assert hi.is_uniform(hi.Hypergraph(5, [(0, 1, 2), (3, 4)])) is None
    assert hi.is_uniform(hi.Hypergraph(4, [])) == hi.VACUOUS


def test_has_uniformity():
    assert hi.has_uniformity(LOOSE, 3)
    assert not hi.has_uniformity(LOOSE, 2)
    assert hi.has_uniformity(hi.Hypergraph(4, []), 7)  # vacuous


# --- linearity --------------------------------------------------------------


def test_is_linear():
    ok, wit = hi.is_linear(LOOSE)
    assert ok and wit is None
    ok, wit = hi.is_linear(hi.fano())
    assert ok and wit is None
    h = hi.Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    ok, wit = hi.is_linear(h)
    assert not ok
    i, j = wit
    assert i != j and len(set(h.edges[i]) & set(h.edges[j])) >= 2


@settings(max_examples=80)
@given(raw_hypergraphs())
def test_is_linear_matches_brute(h):
    assert hi.is_linear(h)[0] == brute_linear(h)


@settings(max_examples=200)
@given(raw_hypergraphs(max_m=12))
@example(PENDANTS_SEPARATE_PAIR)
@example(PENDANT_PATHS_SEPARATE_PAIR)
@example(STAR_PAIR)
@example(TRIPLE_IN_THREE)
def test_is_linear_witness_matches_oracle(h):
    wit = first_repeated_pair(h)
    assert hi.is_linear(h) == (wit is None, wit)


# --- triangles --------------------------------------------------------------


def check_triangle_witness(h, wit):
    a, b, c = wit["vertices"]
    i1, i2, i3 = wit["edges"]
    assert len({a, b, c}) == 3
    assert len({i1, i2, i3}) == 3
    assert {b, c} <= set(h.edges[i1])
    assert {a, c} <= set(h.edges[i2])
    assert {a, b} <= set(h.edges[i3])


def test_is_triangle_free():
    assert hi.is_triangle_free(LOOSE) == (True, None)
    ok, wit = hi.is_triangle_free(hi.loose_cycle(3, 3))
    assert not ok
    assert set(wit["vertices"]) == {0, 2, 4}  # the three link vertices
    check_triangle_witness(hi.loose_cycle(3, 3), wit)
    ok, wit = hi.is_triangle_free(hi.fano())
    assert not ok
    check_triangle_witness(hi.fano(), wit)


def test_triangle_in_non_linear_input():
    # pair {0,1} lies in two edges; the detector must still find the
    # triangle on vertices (0, 2, 3)
    h = hi.Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    ok, wit = hi.is_triangle_free(h)
    assert not ok
    check_triangle_witness(h, wit)


def test_graph_triangles():
    assert not hi.is_triangle_free(hi.loose_cycle(3, 2))[0]  # C3
    assert hi.is_triangle_free(hi.loose_cycle(4, 2))[0]  # C4
    assert hi.is_triangle_free(hi.loose_cycle(6, 2))[0]  # C6


@settings(max_examples=80)
@given(raw_hypergraphs())
def test_is_triangle_free_matches_brute(h):
    ok, wit = hi.is_triangle_free(h)
    assert ok == brute_triangle_free(h)
    if not ok:
        check_triangle_witness(h, wit)


@settings(max_examples=200)
@given(raw_hypergraphs())
@example(BIG_EDGE)
@example(SHARED_PAIR)
@example(BOOK)
@example(BOOK_CHORD)
@example(BIG_EDGE_FAN)
@example(EDGE_THEN_TRIANGLE)
@example(EDGE_PENDANTS)
@example(PENDANTS_SHARED_PAIR)
@example(PENDANTS_SHARED_PAIR_TRIANGLE)
@example(K6)
@example(PENDANTS_SEPARATE_PAIR)
@example(PENDANT_PATHS_SEPARATE_PAIR)
@example(STAR_PAIR)
@example(TRIPLE_IN_THREE)
def test_is_triangle_free_witness_matches_oracle(h):
    wit = first_triangle(h)
    assert hi.is_triangle_free(h) == (wit is None, wit)


@settings(max_examples=200)
@given(raw_hypergraphs())
@example(OPPOSITE_FIRST)
def test_is_triangle_free_linear_witness_matches_oracle(h):
    # on linear input a firing screen hands over to the smallest apex
    assume(hi.is_linear(h)[0])
    wit = first_triangle(h)
    assert hi.is_triangle_free(h) == (wit is None, wit)


@pytest.mark.parametrize(
    "edges, witness",
    [
        # the smallest pair {0,1} has only e - {0,1} = {2} in common, so
        # the screen must catch a later pair of edge {0,1,2}
        ([(0, 1, 2), (1, 2, 3), (0, 2, 4)], ((0, 1, 2), (2, 1, 0))),
        # all three edges contain the whole triangle {0,1,2}
        ([(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4)], ((0, 1, 2), (0, 1, 2))),
    ],
)
def test_triangle_hard_cases(edges, witness):
    h = hi.Hypergraph(5, edges)
    vertices, ix = witness
    expected = {"vertices": vertices, "edges": ix}
    assert first_triangle(h) == expected
    assert hi.is_triangle_free(h) == (False, expected)


# --- double linearity and neighborhood degree -------------------------------


def test_is_double_linear():
    assert hi.is_double_linear(hi.Hypergraph(3, [(0, 1, 2)])) == (True, None)
    assert hi.is_double_linear(LOOSE) == (True, None)
    h = hi.Hypergraph(6, [(0, 1, 2), (1, 3, 4), (2, 3, 5)])
    ok, wit = hi.is_double_linear(h)
    assert not ok
    u, v, i = wit
    # re-verify: u in the edge, non-adjacent to v, and the edge holds
    # two or more neighbors of v
    e = set(h.edges[i])
    assert u in e and u != v and u not in h.neighborhood(v)
    assert len(e & h.neighborhood(v)) >= 2
    with pytest.raises(NotLinear):
        hi.is_double_linear(hi.Hypergraph(4, [(0, 1, 2), (0, 1, 3)]))


@settings(max_examples=200)
@given(raw_hypergraphs())
@example(BIG_EDGE)
@example(BIG_EDGE_FAN)
@example(EDGE_THEN_TRIANGLE)
@example(EDGE_PENDANTS)
@example(K6)
def test_is_double_linear_witness_matches_oracle(h):
    assume(hi.is_linear(h)[0])
    wit = first_double_linear_failure(h)
    assert hi.is_double_linear(h) == (wit is None, wit)


def test_is_double_linear_holds_one_pair_at_a_time():
    # the apex scan holds one edge's sets at a time; the 19,900 pairs of
    # the 200-vertex edge, whose common neighbourhoods hold 198 vertices
    # each, would take about 160 MB held at once
    h = hi.Hypergraph(203, [range(200), (200, 201), (201, 202), (200, 202)])
    h.neighborhood(0)  # build the neighbour sets outside the traced part
    tracemalloc.start()
    try:
        assert hi.is_double_linear(h) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_neighborhood_max_degree():
    assert hi.neighborhood_max_degree(LOOSE) == 0
    assert hi.neighborhood_max_degree(hi.Hypergraph(4, [])) == 0
    assert hi.neighborhood_max_degree(hi.fano()) == 2
    # N(0) = {1,2,3,4} contains the single edge {1,2,3} once
    h = hi.Hypergraph(5, [(0, 1, 2), (0, 3, 4), (1, 2, 3)])
    assert hi.neighborhood_max_degree(h) == 1


@settings(max_examples=200)
@given(raw_hypergraphs(max_n=9, max_m=12))
@example(BIG_EDGE)
@example(SHARED_PAIR)
@example(BOOK)
@example(BOOK_CHORD)
@example(BIG_EDGE_FAN)
@example(EDGE_THEN_TRIANGLE)
@example(EDGE_PENDANTS)
@example(PENDANTS_SHARED_PAIR)
@example(PENDANTS_SHARED_PAIR_TRIANGLE)
@example(K6)
@example(PENDANTS_SEPARATE_PAIR)
@example(PENDANT_PATHS_SEPARATE_PAIR)
@example(STAR_PAIR)
@example(TRIPLE_IN_THREE)
def test_neighborhood_max_degree_matches_oracle(h):
    # mixed sizes and overlapping edges, so non-linear input too
    assert hi.neighborhood_max_degree(h) == brute_nbhd_max_degree(h)


def test_fano_line_inside_neighborhood():
    # spot-check the containment driving the previous assertion
    h = hi.fano()
    hits = [
        (u, e)
        for u in range(h.n)
        for e in h.edges
        if set(e) <= h.neighborhood(u)
    ]
    assert hits  # some line lies inside some point's neighborhood


# --- relabelling invariance -------------------------------------------------


@settings(max_examples=60)
@given(raw_hypergraphs(), st.randoms(use_true_random=False))
def test_predicates_are_label_invariant(h, rnd):
    perm = list(range(h.n))
    rnd.shuffle(perm)
    g = relabel(h, perm)
    assert hi.is_uniform(g) == hi.is_uniform(h)
    assert hi.is_linear(g)[0] == hi.is_linear(h)[0]
    assert hi.is_triangle_free(g)[0] == hi.is_triangle_free(h)[0]
    assert hi.neighborhood_max_degree(g) == hi.neighborhood_max_degree(h)


# --- report -----------------------------------------------------------------


def test_report_clean_instance():
    rep = hi.property_report(LOOSE)
    assert rep == hi.PropertyReport(
        uniform_r=3,
        linear=True,
        triangle_free=True,
        double_linear=True,
        nbhd_max_degree=0,
        witness=None,
    )
    assert rep.hypotheses_hold()
    assert rep.to_json() == (
        '{"uniform_r": 3, "linear": true, "triangle_free": true, '
        '"double_linear": true, "nbhd_max_degree": 0, "witness": null}'
    )


def test_report_fano():
    rep = hi.property_report(hi.fano())
    assert (rep.uniform_r, rep.linear, rep.triangle_free) == (3, True, False)
    # every pair of points is adjacent, so double linearity is vacuous
    assert rep.double_linear
    assert rep.nbhd_max_degree == 2
    assert not rep.hypotheses_hold()
    payload = json.loads(rep.to_json())
    assert set(payload["witness"]) == {"triangle"}
    check_triangle_witness(
        hi.fano(),
        {
            "vertices": tuple(payload["witness"]["triangle"]["vertices"]),
            "edges": tuple(payload["witness"]["triangle"]["edges"]),
        },
    )


def test_report_non_linear():
    rep = hi.property_report(hi.Hypergraph(4, [(0, 1, 2), (0, 1, 3)]))
    assert not rep.linear
    assert not rep.double_linear  # presupposes linearity
    assert not rep.hypotheses_hold()
    wit = json.loads(rep.to_json())["witness"]["linear"]
    assert len(wit["shared"]) >= 2


@settings(max_examples=200)
@given(raw_hypergraphs())
def test_report_double_linear_matches_predicate(h):
    # the report skips the scan on linear triangle-free input
    if not hi.is_linear(h)[0]:
        return
    ok, wit = hi.is_double_linear(h)
    rep = hi.property_report(h)
    assert rep.double_linear == ok
    got = (rep.witness or {}).get("double_linear")
    assert got == (None if wit is None else dict(zip(("u", "v", "edge"), wit)))


def test_report_runs_is_linear_once(monkeypatch):
    calls = []
    is_linear = hi.properties.is_linear

    def counted(h):
        calls.append(h)
        return is_linear(h)

    monkeypatch.setattr(hi.properties, "is_linear", counted)
    rep = hi.property_report(hi.loose_path(3, 3))
    assert rep.linear and rep.double_linear
    assert len(calls) == 1


@settings(max_examples=200)
@given(raw_hypergraphs())
def test_report_nbhd_max_degree_matches_oracle(h):
    # the report skips the scan on linear triangle-free input whose
    # edges all have two or more vertices
    rep = hi.property_report(h)
    assert rep.nbhd_max_degree == hi.neighborhood_max_degree(h)
    assert rep.nbhd_max_degree == brute_nbhd_max_degree(h)


def test_report_one_vertex_edge_inside_neighborhood():
    # N(0) = {1} holds the edge {1}: no triangle, yet degree 1
    h = hi.Hypergraph(2, [(0, 1), (1,)])
    rep = hi.property_report(h)
    assert rep.linear and rep.triangle_free
    assert rep.nbhd_max_degree == 1


def test_report_skips_proven_zero_nbhd_scan(monkeypatch):
    def refuse(h):
        raise AssertionError("neighborhood_max_degree ran")

    monkeypatch.setattr(hi.properties, "neighborhood_max_degree", refuse)
    rep = hi.property_report(hi.loose_cycle(5, 3))
    assert rep.hypotheses_hold() and rep.nbhd_max_degree == 0


def test_report_edgeless_is_vacuously_fine():
    rep = hi.property_report(hi.Hypergraph(3, []))
    assert rep.uniform_r == hi.VACUOUS
    assert rep.hypotheses_hold()
    assert rep.witness is None
