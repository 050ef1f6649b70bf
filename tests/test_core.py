"""Hypergraph construction, neighborhoods, the greedy's slots, the .hg format."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hyperind as hi
from hyperind.algorithms import _Residual
from hyperind.errors import EmptyEdge, EmptyHypergraph, HgFormatError, InvalidVertex
from oracles import brute_linear
from strategies import raw_hypergraphs

LOOSE = hi.Hypergraph(5, [(0, 1, 2), (2, 3, 4)])


# --- construction -----------------------------------------------------------


def test_edges_are_canonicalized():
    h = hi.Hypergraph(5, [(3, 1, 0, 3), (4, 2), (0, 1, 3)])
    assert h.edges == ((0, 1, 3), (2, 4))  # sorted, deduped, lex order
    assert h.m == 2


def test_duplicate_edges_collapse():
    h = hi.Hypergraph(3, [(1, 0), (0, 1), [1, 0]])
    assert h.edges == ((0, 1),)


def test_vertex_out_of_range():
    with pytest.raises(InvalidVertex):
        hi.Hypergraph(2, [(0, 5)])
    with pytest.raises(InvalidVertex):
        hi.Hypergraph(3, [(-1, 0)])
    with pytest.raises(InvalidVertex):
        hi.Hypergraph(-1, [])


def test_empty_edge_rejected():
    with pytest.raises(EmptyEdge):
        hi.Hypergraph(3, [()])


def test_empty_and_edgeless():
    assert hi.Hypergraph(0, []).m == 0
    h = hi.Hypergraph(3, [])
    assert h.average_degree() == 0
    with pytest.raises(EmptyHypergraph):
        hi.Hypergraph(0, []).average_degree()


def test_degrees_and_neighborhoods():
    single = hi.Hypergraph(3, [(0, 1, 2)])
    assert [single.degree(u) for u in range(3)] == [1, 1, 1]
    assert single.neighborhood(0) == {1, 2}
    assert LOOSE.degree(2) == 2
    assert LOOSE.neighborhood(2) == {0, 1, 3, 4}
    assert LOOSE.incident_edges(2) == (0, 1)
    assert LOOSE.incident_edges(4) == (1,)
    iso = hi.Hypergraph(2, [])
    assert iso.degree(1) == 0 and iso.neighborhood(1) == frozenset()
    with pytest.raises(InvalidVertex):
        LOOSE.degree(5)
    with pytest.raises(InvalidVertex):
        LOOSE.neighborhood(-1)


@settings(max_examples=200)
@given(raw_hypergraphs(max_m=12))
def test_neighborhood_is_union_of_incident_edges(h):
    for u in range(h.n):
        union = set().union(*(e for e in h.edges if u in e)) - {u}
        nbhd = h.neighborhood(u)
        assert isinstance(nbhd, frozenset) and nbhd == union
        assert h.neighborhood(u) is nbhd  # built once, then cached
    assert hi.is_linear(h)[0] == brute_linear(h)


def test_average_degree_and_histogram():
    assert hi.Hypergraph(3, [(0, 1, 2)]).average_degree() == 1
    assert LOOSE.average_degree() == Fraction(6, 5)
    assert LOOSE.degree_histogram() == {1: 4, 2: 1}


def test_eq_hash_repr():
    a = hi.Hypergraph(5, [(2, 3, 4), (0, 1, 2)])
    assert a == LOOSE and hash(a) == hash(LOOSE)
    assert a != hi.Hypergraph(6, [(0, 1, 2), (2, 3, 4)])
    assert a != "not a hypergraph"
    assert repr(a) == "Hypergraph(n=5, m=2)"


# --- slot partitions --------------------------------------------------------
# the greedy's slots of a vertex, with every edge live


def test_slot_partition_examples():
    single = hi.Hypergraph(3, [(0, 1, 2)])
    assert _Residual(single, 3).slots(0) == [(1,), (2,)]
    assert _Residual(LOOSE, 3).slots(2) == [(0, 3), (1, 4)]


@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_slot_partition_invariants(r, seed):
    n = 6 + (seed % 9)
    h, _ = hi.random_linear_triangle_free(
        hi.InstanceSpec("random", n=n, r=r, m=max(1, n // r), seed=seed)
    )
    res = _Residual(h, r)
    for x in range(h.n):
        if h.degree(x) == 0:
            continue
        slots = [set(s) for s in res.slots(x)]
        assert len(slots) == r - 1
        union: set[int] = set()
        for s in slots:
            assert len(s) == h.degree(x)
            assert not union & s  # pairwise disjoint
            union |= s
        assert union == set(h.neighborhood(x))
        # each slot meets each incident edge exactly once
        for i in h.incident_edges(x):
            for s in slots:
                assert len(s & set(h.edges[i])) == 1


# --- .hg text format --------------------------------------------------------


def test_format_hg_exact_bytes():
    assert hi.format_hg(LOOSE) == "5 2\n0 1 2\n2 3 4\n"
    assert hi.format_hg(hi.Hypergraph(0, [])) == "0 0\n"


def test_parse_hg_comments_and_blanks():
    text = "# instance\n\n5 2\n0 1 2\n\n# middle\n2 3 4\n# trailing\n"
    assert hi.parse_hg(text) == LOOSE


def test_parse_hg_unsorted_input_canonicalizes():
    assert hi.parse_hg("5 2\n2 3 4\n2 1 0\n") == LOOSE


@pytest.mark.parametrize(
    "text",
    [
        "",  # nothing at all
        "# only a comment\n",
        "5\n",  # header too short
        "5 2 1\n0 1 2\n2 3 4\n",  # header too long
        "a 2\n0 1 2\n2 3 4\n",  # non-integer n
        "5 -1\n",  # negative edge count
        "5 2\n0 1 2\n",  # too few edge lines
        "5 1\n0 1 2\n2 3 4\n",  # too many edge lines
        "5 1\n0 x 2\n",  # non-integer vertex
    ],
)
def test_parse_hg_malformed(text):
    with pytest.raises(HgFormatError):
        hi.parse_hg(text)


def test_parse_hg_semantic_errors():
    with pytest.raises(InvalidVertex):
        hi.parse_hg("3 1\n0 1 3\n")
    with pytest.raises(InvalidVertex):
        hi.parse_hg("-1 0\n")


@settings(max_examples=60)
@given(raw_hypergraphs())
def test_hg_round_trip(h):
    text = hi.format_hg(h)
    assert hi.parse_hg(text) == h
    assert hi.format_hg(hi.parse_hg(text)) == text  # byte idempotence
    assert text.endswith("\n") and "\r" not in text


def test_read_write_files(tmp_path):
    path = tmp_path / "loose.hg"
    hi.write_hg(LOOSE, str(path))
    assert path.read_bytes() == b"5 2\n0 1 2\n2 3 4\n"
    assert hi.read_hg(str(path)) == LOOSE
