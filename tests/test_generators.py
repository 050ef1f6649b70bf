"""Instance generators: RNG reproducibility, unranking, named families."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, count
from math import ceil, comb, log2

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperind as hi
import hyperind.generators as generators
from hyperind.errors import BadSpec
from hyperind.generators import SplitMix64, _unrank_subset
from oracles import brute_linear, brute_triangle_free, lex_unrank_subset


# --- RNG and unranking ------------------------------------------------------


def test_splitmix64_reference_vectors():
    # published outputs for seed 0 (Steele/Lea/Flood reference code)
    rng = SplitMix64(0)
    assert [rng.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_wraps_and_differs():
    assert SplitMix64(2**64 + 5).next() == SplitMix64(5).next()
    assert SplitMix64(1).next() != SplitMix64(2).next()


def test_unrank_subset_is_lexicographic():
    for n, r in ((6, 3), (5, 1), (5, 5), (7, 2)):
        expect = list(combinations(range(n), r))
        got = [_unrank_subset(i, n, r) for i in range(comb(n, r))]
        assert got == expect


LARGE_N = (800, 3200, 10**5, 10**6)


def test_unrank_subset_boundary_ranks_match_oracle():
    cases = [(n, r) for n in range(1, 61) for r in range(1, n + 1)]
    for n, r in cases + [(n, r) for n in LARGE_N for r in (2, 4)]:
        for index in (0, comb(n, r) - 1):
            assert _unrank_subset(index, n, r) == lex_unrank_subset(index, n, r)
    # a rank whose float root guess lands one above the answer, so the
    # first element is stepped down to (the oracle stops after 8 vertices)
    n = 403_123_860
    index = comb(n, 2) - 81_254_420_630_344_731
    assert _unrank_subset(index, n, 2) == lex_unrank_subset(index, n, 2) == (6, 7)


@st.composite
def ranked_subsets(draw):
    """(index, n, r): any rank at r <= n <= 60, a uniform rank at large n."""
    n = draw(st.one_of(st.integers(1, 60), st.sampled_from(LARGE_N)))
    if n <= 60:
        r = draw(st.integers(1, n))
        return draw(st.integers(0, comb(n, r) - 1)), n, r
    r = draw(st.integers(1, 6))
    # hypothesis favours small integers, so a rank drawn directly would
    # mostly name subsets of the first few vertices
    seed = draw(st.integers(0, 2**64 - 1))
    return random.Random(seed).randrange(comb(n, r)), n, r


@settings(max_examples=300, deadline=None)
@given(ranked_subsets())
def test_unrank_subset_matches_oracle(case):
    assert _unrank_subset(*case) == lex_unrank_subset(*case)


def test_unrank_subset_settles_each_element_within_its_am_gm_bound(monkeypatch):
    # every (n, r) with n <= 40: every rank where C(n, r) <= 2000, else
    # both ends and 100 sampled ranks; the element searched with k still
    # needed calls comb(., k) at most 2 + floor(k/2) times
    calls = Counter()

    def counting_comb(a, b):
        calls[b] += 1
        return comb(a, b)

    monkeypatch.setattr(generators, "comb", counting_comb)
    rnd = random.Random(0)
    for n in range(1, 41):
        for r in range(1, n + 1):
            total = comb(n, r)
            if total <= 2000:
                ranks = range(total)
            else:
                ranks = [0, total - 1, *(rnd.randrange(total) for _ in range(100))]
            for index in ranks:
                calls.clear()
                assert _unrank_subset(index, n, r) == lex_unrank_subset(index, n, r)
                calls[r] -= 1  # the C(n, r) that sets the first count
                assert all(c <= 2 + k // 2 for k, c in calls.items()), (index, n, r)


def test_unrank_subset_makes_logarithmically_many_comb_calls(monkeypatch):
    # a return to one comb call per vertex would make about 10^6 here
    n, r = 10**6, 4
    total = comb(n, r)
    calls = 0

    def counting_comb(a, b):
        nonlocal calls
        calls += 1
        return comb(a, b)

    monkeypatch.setattr(generators, "comb", counting_comb)
    rng = SplitMix64(0)
    for index in (0, total - 1, *(rng.next() % total for _ in range(5))):
        calls = 0
        _unrank_subset(index, n, r)
        assert calls <= r * (ceil(log2(n)) + 2)


def test_unrank_subset_typical_cost_is_linear_in_r(monkeypatch):
    # the root guess settles each element but the last with two comb
    # calls; a bisection would need about r log2(n), 40 at n = 800 and r = 4
    calls = 0

    def counting_comb(a, b):
        nonlocal calls
        calls += 1
        return comb(a, b)

    monkeypatch.setattr(generators, "comb", counting_comb)
    rnd = random.Random(0)
    for n in LARGE_N:
        for r in range(1, 7):
            total = comb(n, r)
            for _ in range(50):
                calls = 0
                _unrank_subset(rnd.randrange(total), n, r)
                assert calls <= 3 * r + 1, (n, r, calls)


# --- random family ----------------------------------------------------------


def test_random_is_deterministic():
    spec = hi.InstanceSpec("random", n=9, r=3, m=4, seed=1)
    a, ca = hi.random_linear_triangle_free(spec)
    b, cb = hi.random_linear_triangle_free(spec)
    assert a == b and ca == cb
    c, _ = hi.random_linear_triangle_free(
        hi.InstanceSpec("random", n=9, r=3, m=4, seed=2)
    )
    assert c != a


def test_random_satisfies_hypotheses():
    for n, r, m, seed in ((30, 4, 15, 7), (20, 2, 18, 3), (12, 3, 6, 11)):
        h, complete = hi.random_linear_triangle_free(
            hi.InstanceSpec("random", n=n, r=r, m=m, seed=seed)
        )
        assert complete and h.m == m
        rep = hi.property_report(h)
        assert rep.hypotheses_hold() and rep.uniform_r == r


@st.composite
def small_random_specs(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(r, 14))
    m = draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**64 - 1))
    return hi.InstanceSpec("random", n=n, r=r, m=m, seed=seed)


@settings(max_examples=100, deadline=None)
@given(small_random_specs())
@example(hi.InstanceSpec("random", n=10, r=3, m=5, seed=0))
@example(hi.InstanceSpec("random", n=10, r=3, m=5, seed=3))
@example(hi.InstanceSpec("random", n=9, r=2, m=7, seed=1))
def test_random_replay_against_full_predicates(spec):
    """Re-run the acceptance decision with the brute predicates.

    The generator accepts a candidate by checking neighbour sets; this
    replay instead rebuilds the whole hypergraph per candidate and asks
    the cubic brute-force oracles.  Identical output means the
    neighbour-set test equals the declared acceptance rule.
    """
    n, r, m = spec.n, spec.r, spec.m
    rng = SplitMix64(spec.seed)
    total = comb(n, r)
    all_subsets = list(combinations(range(n), r))
    edges: list[tuple[int, ...]] = []
    rejections = 0
    while len(edges) < m and rejections < 50 * m:
        cand = all_subsets[rng.next() % total]
        trial = edges + [cand]
        g = hi.Hypergraph(n, trial)
        if g.m == len(trial) and brute_linear(g) and brute_triangle_free(g):
            edges.append(cand)
            rejections = 0
        else:
            rejections += 1
    replayed = hi.Hypergraph(n, edges)
    got, complete = hi.random_linear_triangle_free(spec)
    assert got == replayed
    assert complete == (len(edges) == m)


def test_single_possible_edge():
    h, complete = hi.random_linear_triangle_free(
        hi.InstanceSpec("random", n=3, r=3, m=1, seed=9)
    )
    assert complete and h.edges == ((0, 1, 2),)


def test_underfill_is_flagged():
    # n=4, r=3: any two distinct triples share two vertices, so at most
    # one edge can ever be accepted
    h, complete = hi.random_linear_triangle_free(
        hi.InstanceSpec("random", n=4, r=3, m=3, seed=0)
    )
    assert not complete and h.m == 1


def test_zero_edge_target():
    h, complete = hi.random_linear_triangle_free(
        hi.InstanceSpec("random", n=5, r=3, m=0, seed=0)
    )
    assert complete and h.m == 0 and h.n == 5


def test_bad_specs():
    with pytest.raises(BadSpec):
        hi.generate(hi.InstanceSpec("steiner", n=9, r=3, m=4))
    with pytest.raises(BadSpec):
        hi.generate(hi.InstanceSpec("random", n=9, r=1, m=4))
    with pytest.raises(BadSpec):
        hi.generate(hi.InstanceSpec("random", n=9, r=3, m=-1))
    with pytest.raises(BadSpec):
        hi.generate(hi.InstanceSpec("random", n=9, r=3, m=4, seed=-1))
    with pytest.raises(BadSpec):
        hi.random_linear_triangle_free(hi.InstanceSpec("random", n=2, r=3, m=1))
    with pytest.raises(BadSpec, match="vertex count"):
        hi.random_linear_triangle_free(hi.InstanceSpec("random", n=-1, r=3, m=1))
    # instances whose .hg text parse_hg would refuse, refused before any
    # per-vertex set is built: the family's own vertex count above 10^6,
    # or m r (r - 1) neighbour entries above 10^7
    for family, n, r, m, message in (
        ("random", 10**6 + 1, 2, 0, "vertex count 1000001 exceeds"),
        ("loose_path", 0, 2, 10**6, "vertex count 1000001 exceeds"),
        ("loose_cycle", 0, 3, 500001, "vertex count 1000002 exceeds"),
        ("matching", 0, 3, 400000, "vertex count 1200000 exceeds"),
        ("loose_path", 0, 20, 50000, "19000000 neighbour entries, above the cap"),
    ):
        with pytest.raises(BadSpec, match=message):
            hi.generate(hi.InstanceSpec(family, n=n, r=r, m=m))


def test_candidate_space_beyond_64_bits_is_refused():
    # C(10^5, 5) is about 8.3e22: a 64-bit draw modulo it could only
    # ever reach ranks below 2^64, whose subsets all start at 0..4
    with pytest.raises(BadSpec, match="2\\^64"):
        hi.generate(hi.InstanceSpec("random", n=100000, r=5, m=2000, seed=0))


def test_largest_64_bit_candidate_space_generates():
    # no C(n, r) with 2 <= r <= n - 2 is a power of two, so the largest
    # space a draw can cover is the largest n with C(n, r) below 2^64
    r = 5
    n = next(n for n in count(r) if comb(n + 1, r) > 1 << 64)
    h, complete = hi.generate(hi.InstanceSpec("random", n=n, r=r, m=20, seed=0))
    assert complete and h.m == 20 and hi.property_report(h).hypotheses_hold()
    with pytest.raises(BadSpec):
        hi.generate(hi.InstanceSpec("random", n=n + 1, r=r, m=20, seed=0))
    # with no edge to draw, the size of the candidate space is irrelevant
    assert hi.generate(hi.InstanceSpec("random", n=n + 1, r=r, m=0)) == (
        hi.Hypergraph(n + 1, []),
        True,
    )


def test_spec_json_round_trip():
    spec = hi.InstanceSpec("random", n=30, r=4, m=15, seed=7)
    assert spec.to_json() == (
        '{"family": "random", "n": 30, "r": 4, "m": 15, "seed": 7}'
    )


# --- named families ---------------------------------------------------------


def test_loose_path_shape():
    assert hi.loose_path(2, 3).edges == ((0, 1, 2), (2, 3, 4))
    assert hi.loose_path(1, 2).edges == ((0, 1),)
    h = hi.loose_path(5, 4)
    assert h.n == 5 * 3 + 1
    for e1, e2 in zip(h.edges, h.edges[1:]):
        assert len(set(e1) & set(e2)) == 1


def test_loose_path_hypotheses_sweep():
    for k in range(1, 21):
        for r in range(2, 7):
            rep = hi.property_report(hi.loose_path(k, r))
            assert rep.hypotheses_hold() and rep.uniform_r == r


def test_loose_cycle_shape():
    h = hi.loose_cycle(3, 3)
    assert h.n == 6
    assert h.edges == ((0, 1, 2), (0, 4, 5), (2, 3, 4))
    assert hi.loose_cycle(4, 2).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    h = hi.loose_cycle(5, 3)
    for i, e1 in enumerate(h.edges):
        # every edge meets exactly two others, in one vertex each
        touching = [e2 for e2 in h.edges if e2 != e1 and set(e1) & set(e2)]
        assert len(touching) == 2
        assert all(len(set(e1) & set(e2)) == 1 for e2 in touching)


def test_loose_cycle_triangle_only_at_three():
    assert not hi.is_triangle_free(hi.loose_cycle(3, 3))[0]
    assert not hi.is_triangle_free(hi.loose_cycle(3, 2))[0]
    for k, r in ((4, 2), (4, 3), (5, 3), (6, 4)):
        assert hi.is_triangle_free(hi.loose_cycle(k, r))[0], (k, r)
        assert hi.is_linear(hi.loose_cycle(k, r))[0]


def test_matching_shape():
    h = hi.matching(2, 4)
    assert h.edges == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert hi.property_report(h).hypotheses_hold()


def test_fano_structure():
    h = hi.fano()
    assert (h.n, h.m) == (7, 7)
    assert hi.is_linear(h)[0]
    assert not hi.is_triangle_free(h)[0]
    # every pair of points lies on exactly one line
    pairs = [p for e in h.edges for p in combinations(e, 2)]
    assert len(pairs) == 21 and len(set(pairs)) == 21 == comb(7, 2)


def test_family_constructor_errors():
    with pytest.raises(BadSpec):
        hi.loose_path(0, 3)
    with pytest.raises(BadSpec):
        hi.loose_path(2, 1)
    with pytest.raises(BadSpec):
        hi.loose_cycle(2, 3)
    with pytest.raises(BadSpec):
        hi.loose_cycle(4, 1)
    with pytest.raises(BadSpec):
        hi.matching(0, 3)
    with pytest.raises(BadSpec):
        hi.matching(2, 1)


def test_generate_dispatch():
    assert hi.generate(hi.InstanceSpec("loose_path", n=0, r=3, m=2)) == (
        hi.loose_path(2, 3),
        True,
    )
    assert hi.generate(hi.InstanceSpec("loose_cycle", n=0, r=2, m=4))[0] == (
        hi.loose_cycle(4, 2)
    )
    assert hi.generate(hi.InstanceSpec("matching", n=0, r=3, m=3))[0] == (
        hi.matching(3, 3)
    )
    assert hi.generate(hi.InstanceSpec("fano", n=0, r=3, m=0))[0] == hi.fano()
    # fano ignores the size fields, and so the size caps
    assert hi.generate(hi.InstanceSpec("fano", n=10**9, r=3, m=10**9))[0] == hi.fano()
