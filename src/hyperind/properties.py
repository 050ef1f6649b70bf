"""Structural predicates with failure witnesses.

Every predicate that can fail returns a witness that reproduces the
violation when checked against the hypergraph, so negative answers are
auditable.  ``property_report`` bundles all predicates into one record
with a stable JSON form.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Union

from . import _EXPORTS
from .core import Hypergraph
from .errors import NotLinear

__all__ = list(_EXPORTS["properties"])

# Convention value returned by is_uniform for an edgeless hypergraph,
# which is r-uniform for every r.
VACUOUS = "vacuous"


def is_uniform(h: Hypergraph) -> Union[int, str, None]:
    """Common edge cardinality, VACUOUS for edgeless h, None if mixed."""
    if not h.edges:
        return VACUOUS
    sizes = {len(e) for e in h.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def has_uniformity(h: Hypergraph, r: int) -> bool:
    """True when every edge has exactly r vertices (vacuously for no edges)."""
    u = is_uniform(h)
    return u == VACUOUS or u == r


def is_linear(h: Hypergraph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check that any two edges share at most one vertex.

    Decides by the count identity sum_v |N(v)| = sum_e |e|(|e| - 1).
    The right side counts the ordered pairs (v, w), v != w, once for each
    edge holding both; the left side counts each such pair once.  So the
    two agree exactly when no pair lies in two edges.  Only on failure
    does a scan find the witness, over each edge's pairs of vertices on a
    repeated pair: v is on one exactly when |N(v)| is below the sum of
    |e| - 1 over the edges e through v.

    Returns (True, None) or (False, (i, j)) where edges i < j share at
    least two vertices: j is the first edge that repeats a pair, i the
    edge it repeats at its smallest such pair.
    """
    if _pairs_counted_once(h):
        return True, None
    nbrs, edges = h._neighbor_sets(), h.edges
    inc = {
        v: set(ix)
        for v, ix in enumerate(h._incident)
        if len(nbrs[v]) < sum(len(edges[i]) - 1 for i in ix)
    }
    for j, e in enumerate(edges):
        for a, b in combinations([v for v in e if v in inc], 2):
            i = min(inc[a] & inc[b])
            if i < j:
                return False, (i, j)
    raise AssertionError("pair counts differ but no pair repeats")


def _pairs_counted_once(h: Hypergraph) -> bool:
    return sum(map(len, h._neighbor_sets())) == sum(len(e) * (len(e) - 1) for e in h.edges)


def _apexes(h: Hypergraph) -> Iterator[tuple[int, set[int]]]:
    """Yield (i, its apexes) by ascending i for each edge i that has one.

    An apex of e lies outside e and sees two or more of its vertices.  As
    N(a) holds e - {a}, e has none exactly when the N(a) but the largest,
    N(t), cover t and |N(a)| - |e| + 1 more vertices each outside N(t).
    N(t) is only intersected, so a hub's leaves never walk its own.
    """
    nbrs = h._neighbor_sets()
    for i, e in enumerate(h.edges):
        *rest, top = sorted([nbrs[a] for a in e], key=len)
        seen = set().union(*rest)  # empty, at no cost, for a one-vertex edge
        twice = seen & top
        if rest and len(seen) - len(twice) + len(rest) ** 2 != 1 + sum(map(len, rest)):
            seen = set()
            for near in rest:
                twice |= seen & near
                seen |= near
            yield i, twice.difference(e)


def is_triangle_free(
    h: Hypergraph,
) -> tuple[bool, Optional[dict[str, tuple[int, ...]]]]:
    """Search for three vertices and three distinct edges forming a triangle.

    A triangle is vertices (u1, u2, u3) with distinct edges (e1, e2, e3)
    such that each ei contains the two vertices other than ui.  Works on
    non-linear input too: a pair may then lie in several edges and all
    choices of distinct representatives are tried.

    One ordered search gives every witness.  On linear input the apexes
    in _apexes are exactly the triangle vertices (ui is one of ei; an apex
    of g sees two vertices of g through two other edges), so h is
    triangle-free when none exists, and else the search walks the smallest
    apex a and what a sees of each edge it is an apex of.  Non-linear input
    always has an apex, so the search walks its 2-core (_two_core) at once.

    Returns (True, None) or (False, witness) with witness keys
    "vertices" = (u1, u2, u3) and "edges" = (e1, e2, e3) as edge indexes,
    the first by vertices ascending, then by edge indexes ascending.
    """
    nbrs = h._neighbor_sets()
    if not _pairs_counted_once(h):
        return _ordered_triangle_search(h, nbrs, _two_core(h))
    firsts = [(min(apexes), g) for g, apexes in _apexes(h)]
    if not firsts:
        return True, None
    a = min(firsts)[0]  # the smallest apex: one of g exactly when g has no smaller
    seen = (nbrs[a].intersection(h.edges[g]) for b, g in firsts if b == a)
    return _ordered_triangle_search(h, nbrs, {a}.union(*seen))


def _two_core(h: Hypergraph) -> set[int]:
    """Vertices left after peeling, to the fixpoint, every vertex on fewer
    than two edges that hold another unpeeled vertex.

    No triangle vertex is peeled: it lies on two triangle edges, and each
    holds another triangle vertex.  Each edge keeps its count and the sum
    of its unpeeled vertices, so the last one is found at once: O(sum |e|).
    """
    edges, inc = h.edges, h._incident
    left, rest, live = list(map(len, edges)), list(map(sum, edges)), list(map(len, inc))
    for e in edges:
        if len(e) == 1:  # holds no pair
            live[e[0]] -= 1
    keep = [d > 1 for d in live]
    peel = [v for v, d in enumerate(live) if d < 2]
    while peel:
        v = peel.pop()
        for i in inc[v]:
            left[i] -= 1
            rest[i] -= v
            if left[i] == 1:  # edge i no longer holds a pair for rest[i]
                w = rest[i]
                live[w] -= 1
                if keep[w] and live[w] < 2:
                    keep[w] = False
                    peel.append(w)
    return {v for v, k in enumerate(keep) if k}


def _ordered_triangle_search(h: Hypergraph, nbrs: tuple[frozenset[int], ...], walk: set[int]):
    incident = {v: set(h._incident[v]) for v in walk}

    def through(x: int, y: int) -> list[int]:
        return sorted(incident[x] & incident[y])

    covered = ((a, b) for a in sorted(walk) for b in sorted(nbrs[a] & walk) if b > a)
    for a, b in covered:
        # triple {a,b,c} is handled at its two smallest vertices
        for c in sorted(w for w in nbrs[a] & nbrs[b] & walk if w > b):
            for i1 in through(b, c):
                for i2 in through(a, c):
                    for i3 in through(a, b) if i2 != i1 else ():
                        if i3 != i1 and i3 != i2:
                            return False, {"vertices": (a, b, c), "edges": (i1, i2, i3)}
    return True, None


def is_double_linear(
    h: Hypergraph,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Check that edges see non-adjacent neighborhoods at most once.

    Requires h linear (raises NotLinear otherwise).  Fails when some
    edge through a vertex u contains two or more neighbors of a vertex v
    that is distinct from and non-adjacent to u: v is an apex of the
    edge in _apexes whose neighbourhood misses some of it, such as u.

    Returns (True, None) or (False, (u, v, i)) with i the edge index:
    the smallest i, then the smallest v, then the first such u.
    """
    if not _pairs_counted_once(h):
        raise NotLinear("double linearity is only defined for linear input")
    nbrs, edges = h._neighbor_sets(), h.edges
    for i, apexes in _apexes(h):
        v = min((v for v in apexes if not nbrs[v].issuperset(edges[i])), default=None)
        if v is not None:
            return False, (next(u for u in edges[i] if u not in nbrs[v]), v, i)
    return True, None


def neighborhood_max_degree(h: Hypergraph) -> int:
    """Largest degree in any subhypergraph induced by a vertex neighborhood.

    Each z counts, over its edges e, the v whose N(v) holds e, as the
    edges inside N(v) are those of the subhypergraph it induces.  Those
    v are the intersection of N(a) over a in e, taken once per edge from
    the smallest N(a).  It is 0 when no edge fits in any neighborhood, as
    on linear triangle-free input with no one-vertex edge: an edge inside
    N(v) closes a triangle through v; double linearity holds there too
    (acceptance criterion 8).
    """
    nbrs, degree = h._neighbor_sets(), {}
    for e in h.edges:
        inside = frozenset.intersection(*sorted((nbrs[a] for a in e), key=len))
        for z in e if inside else ():
            degree.setdefault(z, Counter()).update(inside)
    return max((max(count.values()) for count in degree.values()), default=0)


class PropertyReport(NamedTuple):
    """All structural predicates of a hypergraph in one record."""

    uniform_r: Union[int, str, None]
    linear: bool
    triangle_free: bool
    double_linear: bool
    nbhd_max_degree: int
    witness: Optional[dict]

    def hypotheses_hold(self) -> bool:
        """True when the input is r-uniform (some r), linear, triangle-free."""
        return self.uniform_r is not None and self.linear and self.triangle_free

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def property_report(h: Hypergraph) -> PropertyReport:
    """Evaluate every predicate and collect failure witnesses.

    Witnesses record edges both as indexes and vertex tuples so they can
    be re-verified without the original object.  A non-linear input
    reports double_linear as False (the property presupposes linearity).

    Two scans are skipped where their answer is proven.  On linear
    triangle-free input, double_linear is True: a violation (u, v, e)
    closes a triangle on v and two vertices of e.  If, besides, every
    edge has two or more vertices, nbhd_max_degree is 0: an edge e inside
    N(u) misses u, and for a != b in e the edges through {u, a}, {u, b}
    and {a, b} are distinct by linearity, a triangle.
    """
    witness: dict = {}
    uniform_r = is_uniform(h)
    linear, lin_wit = is_linear(h)
    if lin_wit is not None:
        i, j = lin_wit
        witness["linear"] = {
            "edges": [i, j],
            "shared": sorted(set(h.edges[i]) & set(h.edges[j])),
        }
    tri_free, tri_wit = is_triangle_free(h)
    if tri_wit is not None:
        witness["triangle"] = {key: list(ix) for key, ix in tri_wit.items()}
    double, dl_wit = is_double_linear(h) if linear and not tri_free else (linear, None)
    if dl_wit is not None:
        witness["double_linear"] = dict(zip(("u", "v", "edge"), dl_wit))
    nbhd_zero = linear and tri_free and all(len(e) > 1 for e in h.edges)
    return PropertyReport(
        uniform_r=uniform_r,
        linear=linear,
        triangle_free=tri_free,
        double_linear=double,
        nbhd_max_degree=0 if nbhd_zero else neighborhood_max_degree(h),
        witness=witness or None,
    )
