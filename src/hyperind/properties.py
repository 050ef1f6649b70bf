"""Structural predicates with failure witnesses.

Every predicate that can fail returns a witness that reproduces the
violation when checked against the hypergraph, so negative answers are
auditable.  ``property_report`` bundles all predicates into one record
with a stable JSON form.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from typing import NamedTuple, Optional, Union

from .core import Hypergraph
from .errors import NotLinear

__all__ = [
    "VACUOUS",
    "is_uniform",
    "has_uniformity",
    "is_linear",
    "is_triangle_free",
    "is_double_linear",
    "neighborhood_max_degree",
    "PropertyReport",
    "property_report",
]

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
    does a scan of each edge's pairs, on the incidence index, find the
    witness.

    Returns (True, None) or (False, (i, j)) where edges i < j share at
    least two vertices: j is the first edge that repeats a pair, i the
    edge it repeats at its smallest such pair.
    """
    covered = sum(map(len, h._neighbor_sets()))
    if covered == sum(len(e) * (len(e) - 1) for e in h.edges):
        return True, None
    inc = h._incident
    for j, e in enumerate(h.edges):
        for a, b in combinations(e, 2):
            i = min(set(inc[a]).intersection(inc[b]))
            if i < j:
                return False, (i, j)
    raise AssertionError("pair counts differ but no pair repeats")


def is_triangle_free(
    h: Hypergraph,
) -> tuple[bool, Optional[dict[str, tuple[int, ...]]]]:
    """Search for three vertices and three distinct edges forming a triangle.

    A triangle is vertices (u1, u2, u3) with distinct edges (e1, e2, e3)
    such that each ei contains the two vertices other than ui.  Works on
    non-linear input too: a pair may then lie in several edges and all
    choices of distinct representatives are tried.

    A screen runs first.  For a, b in an edge e, N(a) & N(b) holds
    e - {a, b}, and a triangle always leaves some pair a common neighbor
    outside its edge.  Either u3, a common neighbor of u1 and u2, lies
    outside e3 (likewise for e1 and e2), or all three edges contain
    {u1, u2, u3}; then, as e1 != e2, one of them, say e1, misses some x
    of the other, and x is a common neighbor of u1 and u2 outside e1.
    So h is triangle-free when no pair of an edge e has more than
    |e| - 2 common neighbors, and pairs with a vertex on one edge only
    (whose neighbors all lie in it) are skipped.  Otherwise the ordered
    search runs; it reads the edges through {a, b} only for distinct
    edges through {b, c} and {a, c}.

    Returns (True, None) or (False, witness) with witness keys
    "vertices" = (u1, u2, u3) and "edges" = (e1, e2, e3) as edge indexes,
    the first by vertices ascending, then by edge indexes ascending.
    """
    nbrs, inc = h._neighbor_sets(), h._incident
    for e in h.edges:
        k = len(e) - 2
        for a, b in combinations(e, 2):
            if len(inc[a]) > 1 and len(inc[b]) > 1 and len(nbrs[a] & nbrs[b]) > k:
                return _ordered_triangle_search(h, nbrs)
    return True, None


def _ordered_triangle_search(h: Hypergraph, nbrs: tuple[frozenset[int], ...]):
    incident = [set(ix) for ix in h._incident]

    def through(x: int, y: int) -> list[int]:
        return sorted(incident[x] & incident[y])

    covered = ((a, b) for a in range(h.n) for b in sorted(nbrs[a]) if b > a)
    for a, b in covered:
        # triple {a,b,c} is handled at its two smallest vertices
        for c in sorted(w for w in nbrs[a] & nbrs[b] if w > b):
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
    that is distinct from and non-adjacent to u.  Such v lie outside the
    edge, in N(a) & N(b) for a pair a, b of it, taken one pair at a time.

    Returns (True, None) or (False, (u, v, i)) with i the edge index.
    """
    if not is_linear(h)[0]:
        raise NotLinear("double linearity is only defined for linear input")
    nbrs = h._neighbor_sets()
    for i, e in enumerate(h.edges):
        pairs = combinations(e, 2)
        twice = set(chain.from_iterable(nbrs[a] & nbrs[b] for a, b in pairs))
        for v in sorted(twice.difference(e)):
            for u in e:
                if u not in nbrs[v]:
                    return False, (u, v, i)
    return True, None


def neighborhood_max_degree(h: Hypergraph) -> int:
    """Largest degree in any subhypergraph induced by a vertex neighborhood.

    The subhypergraph induced by N(u) keeps exactly the edges fully
    contained in N(u); the degree of z there counts those edges through
    z.  An edge e lies inside N(u) exactly for the u in the intersection
    of N(v) over v in e, smallest first.  Returns 0 when no edge fits in
    any neighborhood.  That always holds on linear triangle-free input
    with no one-vertex edge, as an edge inside N(u) closes a triangle
    through u; double linearity holds there too (acceptance criterion 8).
    """
    nbrs = h._neighbor_sets()
    count: dict[tuple[int, int], int] = {}
    for e in h.edges:
        for u in frozenset.intersection(*sorted((nbrs[v] for v in e), key=len)):
            for z in e:
                count[u, z] = count.get((u, z), 0) + 1
    return max(count.values(), default=0)


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
        witness["triangle"] = {
            "vertices": list(tri_wit["vertices"]),
            "edges": list(tri_wit["edges"]),
        }
    if linear and tri_free:
        double = True
    elif linear:
        double, dl_wit = is_double_linear(h)
        if dl_wit is not None:
            u, v, i = dl_wit
            witness["double_linear"] = {"u": u, "v": v, "edge": i}
    else:
        double = False
    nbhd_zero = linear and tri_free and all(len(e) > 1 for e in h.edges)
    return PropertyReport(
        uniform_r=uniform_r,
        linear=linear,
        triangle_free=tri_free,
        double_linear=double,
        nbhd_max_degree=0 if nbhd_zero else neighborhood_max_degree(h),
        witness=witness or None,
    )
