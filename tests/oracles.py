"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package: the
quadrature oracles use a fixed-panel composite midpoint rule instead of
adaptive Gauss-Legendre, the chishti closed-form oracle calls mpmath's
hyp2f1 instead of summing the package's series, the alpha oracle
enumerates all 2^n subsets instead of branch-and-bound, the
search-order oracle
reference_exact_alpha pushes both children of every node and finds each
live edge by peeling the lowest bit of a live-edge index mask instead of
walking a per-node list of edge masks and descending into the exclude
child in place, and orders the edges it packs by a stable sort on their
undecided size instead of one bucket per size, the predicate oracles
use cubic brute-force loops over plain edge lists instead of the
package's incidence index and neighbour-set intersections, find the
linearity, triangle and double-linearity witnesses by early-exit
scans over those lists, and
test every edge against every neighborhood instead of only the edges
near it, the recurrence oracles iterate in high-precision floating
point instead of exact rationals (the graph recurrence, which must
match exactly, solves its own difference equation), the slot oracle
reference_slots scans the whole edge list for the edges through a
vertex instead of reading its live incident edges, the candidate-delta
oracle reference_delta takes the whole potential before and after a
removal, and the reference greedy does so at every step and rebuilds
every slot, both recounting every degree from plain edge lists instead
of the greedy's live degrees, cached slots and scaled edge-removal
gains, and the subset unranker walks every vertex in turn instead of
solving for each element's binomial root.  Agreement between such
different routes is the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional

import mpmath as mp
import numpy as np

from hyperind import AlphaResult, Hypergraph, Step


# ---------------------------------------------------------------------------
# quadrature: composite midpoint at a fixed (large) panel count
# ---------------------------------------------------------------------------


def brute_li_zang(r: int, m: int, x: float, panels: int = 10**6) -> float:
    """Midpoint rule on the u-substituted integrand; x > 0 required.

    The Beta normalizer is taken in closed form here; brute_beta below
    validates that closed form against direct quadrature separately.
    """
    rm1 = r - 1
    g = 1.0 / (rm1 * rm1 * m)
    u = (np.arange(panels, dtype=np.float64) + 0.5) / panels
    t = u**rm1
    vals = rm1 * (1.0 - t) ** g / (m + (x - m) * t)
    bnorm = math.exp(
        math.lgamma(1.0 / rm1) + math.lgamma(g) - math.lgamma(1.0 / rm1 + g)
    )
    return (m / bnorm) * float(vals.mean())


def brute_chishti(r: int, x: float, panels: int = 10**6) -> float:
    """Midpoint rule on the u-substituted integrand; x > 0 required."""
    rm1 = r - 1
    coef = rm1 * x - 1.0
    u = (np.arange(panels, dtype=np.float64) + 0.5) / panels
    t = u**rm1
    return float(((1.0 - t) / (1.0 + coef * t)).mean())


def brute_beta(alpha: float, beta: float, panels: int = 10**6) -> float:
    """Beta(alpha, beta) for 0 < alpha, beta <= 1 by direct quadrature.

    The integral is split at 1/2 and each half is power-substituted
    (t = u^(1/alpha), 1-t = v^(1/beta)) so both integrands are smooth;
    no Gamma function is involved anywhere.
    """
    p = 1.0 / alpha
    hi_u = 0.5**alpha
    u = (np.arange(panels, dtype=np.float64) + 0.5) * (hi_u / panels)
    left = hi_u * float((p * np.power(1.0 - u**p, beta - 1.0)).mean())
    q = 1.0 / beta
    hi_v = 0.5**beta
    v = (np.arange(panels, dtype=np.float64) + 0.5) * (hi_v / panels)
    right = hi_v * float((q * np.power(1.0 - v**q, alpha - 1.0)).mean())
    return left + right


# ---------------------------------------------------------------------------
# high-precision floating point (third route, for frozen pins)
# ---------------------------------------------------------------------------


def mp_weight_sequence(r: int, d_max: int, dps: int = 50) -> list:
    """Iterate w(d) = (1 + ((r-1)d^2 - d) w(d-1)) / (1 + (r-1)d^2) in mpf."""
    with mp.workdps(dps):
        f = mp.mpf(1)
        out = [f]
        for d in range(1, d_max + 1):
            c = (r - 1) * d * d
            f = (1 + (c - d) * f) / (1 + c)
            out.append(f)
        return out


def mp_caro_tuza(r: int, d: int, dps: int = 50):
    """Gamma-quotient form of the product weight (independent identity)."""
    with mp.workdps(dps):
        c = mp.mpf(1) / (r - 1)
        return mp.gamma(d + 1) * mp.gamma(1 + c) / mp.gamma(d + 1 + c)


def mp_shearer_s1(d, dps: int = 60):
    """(d ln d - d + 1) / (d - 1)^2 at high precision (1/2 at d = 1)."""
    with mp.workdps(dps):
        x = mp.mpf(d)
        if x == 0:
            return mp.mpf(1)
        if x == 1:
            return mp.mpf(1) / 2
        return (x * mp.log(x) - x + 1) / (x - 1) ** 2


def shearer_s2_sequence(d_max: int) -> list[Fraction]:
    """Exact graph recurrence f(0..d_max) from its difference equation.

    (d+1) f(d) = 1 + (d - d^2)(f(d) - f(d-1)) with f(0) = 1, solved for
    f(d) at each step.
    """
    out = [Fraction(1)]
    for d in range(1, d_max + 1):
        out.append((1 + (d * d - d) * out[-1]) / (1 + d * d))
    return out


def mp_li_zang(r: int, m: int, x, dps: int = 30, sign: int = 1):
    """tanh-sinh quadrature of the substituted integrand, mpmath beta.

    sign=-1 gives the widely reprinted form, whose denominator is
    m - (x-m)t instead of m + (x-m)t.
    """
    with mp.workdps(dps):
        rm1 = r - 1
        g = mp.mpf(1) / (rm1 * rm1 * m)
        xm = mp.mpf(x)
        bnorm = mp.beta(mp.mpf(1) / rm1, g)
        val = mp.quad(
            lambda u: rm1 * (1 - u**rm1) ** g / (m + sign * (xm - m) * u**rm1),
            [0, 1],
        )
        return (m / bnorm) * val


def mp_chishti(r: int, x, dps: int = 30, sign: int = 1):
    """tanh-sinh quadrature of the substituted integrand; sign=-1 as in
    mp_li_zang."""
    with mp.workdps(dps):
        rm1 = r - 1
        coef = sign * (rm1 * mp.mpf(x) - 1)
        return mp.quad(
            lambda u: (1 - u**rm1) / (1 + coef * u**rm1),
            [0, 1],
        )


def mp_chishti_hyp2f1(r: int, x, dps: int = 40):
    """chishti's closed form 2F1(1, a; a+2; 1 - (r-1)x)/(a+1), a = 1/(r-1),
    through mpmath's own hyp2f1 (no quadrature, no series of the package)."""
    with mp.workdps(dps):
        a = mp.mpf(1) / (r - 1)
        return mp.hyp2f1(1, a, a + 2, 1 - (r - 1) * mp.mpf(x)) / (a + 1)


# ---------------------------------------------------------------------------
# exhaustive independence number
# ---------------------------------------------------------------------------


def enumerate_alpha(h: Hypergraph) -> int:
    """alpha(H) by scanning all 2^n vertex subsets (n <= 20)."""
    n = h.n
    assert n <= 20, "enumeration oracle is limited to n <= 20"
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    ok = np.ones(size, dtype=bool)
    for e in h.edges:
        em = np.uint32(sum(1 << v for v in e))
        ok &= (idx & em) != em
    pop = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1).sum(axis=1)
    return int(pop[ok].max())


def reference_exact_alpha(h: Hypergraph, budget: Optional[int] = None) -> AlphaResult:
    """exact_alpha's branch and bound, node for node, on one bitmask stack.

    Each stack entry is (undecided, included, live) as bitmasks, live a
    mask of edge indexes; a node's live edges are found by peeling the
    lowest set bit of live, and both children are pushed, include first
    so that exclude is popped first.  Each node first applies the unit
    and leaf rules one at a time, each found by a full scan: the lowest
    index live edge with at most one undecided vertex excludes that
    vertex, and it is asserted that no live edge lies inside the
    included set; failing that, the lowest undecided vertex on exactly
    one live edge is included.  The undecided parts of the live edges
    are then put in order by a stable sort on their size, so that the
    packing takes them smallest first and in index order within a size.
    The rules and their order, the branching rule (the undecided vertex
    of highest live degree over the union of the undecided parts of all
    smallest live edges, lowest id on ties), the packing bound, the
    witness, the node count and the budget cut-off are exact_alpha's, so
    the whole AlphaResult must agree.
    """
    n = h.n
    edge_masks = []
    vmask = [0] * n
    for i, e in enumerate(h.edges):
        em = 0
        for v in e:
            em |= 1 << v
            vmask[v] |= 1 << i
        edge_masks.append(em)

    def live_indexes(live):
        while live:
            low = live & -live
            live ^= low
            yield low.bit_length() - 1

    best = 0
    best_mask = 0
    nodes = 0
    exact = True
    stack = [((1 << n) - 1, 0, (1 << len(edge_masks)) - 1)] if n else []
    while stack:
        nodes += 1
        if budget is not None and nodes > budget:
            exact = False
            break
        und, inc, live = stack.pop()
        while True:
            unit = next(
                (edge_masks[i] & und for i in live_indexes(live)
                 if (edge_masks[i] & und).bit_count() <= 1),
                None,
            )
            assert unit != 0, "a live edge lies inside the included set"
            if unit is not None:
                und &= ~unit
                live &= ~vmask[unit.bit_length() - 1]
                continue
            leaf = next(
                (v for v in range(n)
                 if und >> v & 1 and (vmask[v] & live).bit_count() == 1),
                None,
            )
            if leaf is None:
                break
            und &= ~(1 << leaf)
            inc |= 1 << leaf
        cand = und | inc
        room = cand.bit_count() - best
        if room <= 0:
            continue
        if not live:
            best, best_mask = best + room, cand
            continue
        parts = [edge_masks[i] & und for i in live_indexes(live)]
        parts.sort(key=int.bit_count)  # stable: index order within a size
        packed = 0
        for eu in parts:
            if not eu & packed:
                packed |= eu
                room -= 1
                if room <= 0:
                    break
        if room <= 0:
            continue
        pick_sz = parts[0].bit_count()
        pick_eu = 0
        for eu in parts:
            if eu.bit_count() > pick_sz:
                break
            pick_eu |= eu
        v_pick, v_deg = -1, -1
        mm = pick_eu
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            deg = (vmask[v] & live).bit_count()
            if deg > v_deg:
                v_deg, v_pick = deg, v
            mm ^= low
        bit = 1 << v_pick
        stack.append((und & ~bit, inc | bit, live))
        stack.append((und & ~bit, inc, live & ~vmask[v_pick]))
    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return AlphaResult(alpha=best, independent_set=witness, exact=exact, nodes=nodes)


# ---------------------------------------------------------------------------
# brute-force structural predicates
# ---------------------------------------------------------------------------


def brute_linear(h: Hypergraph) -> bool:
    return all(
        len(set(e1) & set(e2)) <= 1
        for e1, e2 in combinations(h.edges, 2)
    )


def first_repeated_pair(h: Hypergraph):
    """is_linear's witness by a scan that stops at the first repeated pair.

    Edges are scanned in index order and each edge's pairs in ascending
    order; the first pair already seen gives (earlier edge, this edge).
    Returns None on linear input.
    """
    pair_edge: dict[tuple[int, int], int] = {}
    for i, e in enumerate(h.edges):
        for pair in combinations(e, 2):
            j = pair_edge.get(pair)
            if j is not None:
                return j, i
            pair_edge[pair] = i
    return None


def brute_triangle_free(h: Hypergraph) -> bool:
    """Triangle: distinct vertices (a, b, c) and distinct edges (e1, e2, e3)
    with {b,c} <= e1, {a,c} <= e2, {a,b} <= e3."""
    m = h.m
    sets = [set(e) for e in h.edges]
    for i1, i2, i3 in combinations(range(m), 3):
        for e1, e2, e3 in (
            (i1, i2, i3), (i1, i3, i2), (i2, i1, i3),
            (i2, i3, i1), (i3, i1, i2), (i3, i2, i1),
        ):
            for a in sets[e2] & sets[e3]:
                for b in sets[e1] & sets[e3]:
                    if b == a:
                        continue
                    for c in sets[e1] & sets[e2]:
                        if c != a and c != b:
                            return False
    return True


def first_triangle(h: Hypergraph):
    """is_triangle_free's witness by brute force over its documented order.

    Vertex triples a < b < c in lexicographic order, then edge indexes
    i1 (holding {b, c}), i2 (holding {a, c}) and i3 (holding {a, b}),
    each ascending, the three distinct.  Returns the witness dict for
    the first hit, or None when there is no triangle.
    """
    sets = [set(e) for e in h.edges]
    for a, b, c in combinations(range(h.n), 3):
        for i1, s1 in enumerate(sets):
            if not {b, c} <= s1:
                continue
            for i2, s2 in enumerate(sets):
                if i2 == i1 or not {a, c} <= s2:
                    continue
                for i3, s3 in enumerate(sets):
                    if i3 != i1 and i3 != i2 and {a, b} <= s3:
                        return {"vertices": (a, b, c), "edges": (i1, i2, i3)}
    return None


def first_double_linear_failure(h: Hypergraph):
    """is_double_linear's witness by brute force over its documented order.

    Edges in index order; for each, every vertex v in ascending order
    that is adjacent to two or more of the edge's vertices; for each
    such v, the edge's vertices u in ascending order.  The first u that
    differs from v and is not adjacent to it gives (u, v, edge index).
    Adjacency is tested against the edge list directly.  Returns None
    when there is no such triple.
    """
    sets = [set(e) for e in h.edges]

    def adjacent(x: int, y: int) -> bool:
        return x != y and any(x in s and y in s for s in sets)

    for i, e in enumerate(h.edges):
        for v in range(h.n):
            if sum(adjacent(v, w) for w in e) < 2:
                continue
            for u in e:
                if u != v and not adjacent(u, v):
                    return u, v, i
    return None


def brute_nbhd_max_degree(h: Hypergraph) -> int:
    """Tests every edge against every vertex neighborhood."""
    best = 0
    for u in range(h.n):
        s = h.neighborhood(u)
        if not s:
            continue
        count: dict[int, int] = {}
        for e in h.edges:
            if all(w in s for w in e):
                for z in e:
                    count[z] = count.get(z, 0) + 1
        if count:
            best = max(best, max(count.values()))
    return best


# ---------------------------------------------------------------------------
# lexicographic unranking: one vertex at a time
# ---------------------------------------------------------------------------


def lex_unrank_subset(index: int, n: int, r: int) -> tuple[int, ...]:
    """index-th r-subset of {0..n-1} in lexicographic order, in Theta(n).

    Walks v = 0, 1, ...: the subsets that take v as their next element
    number C(n-v-1, need-1); v is taken when index falls among them,
    and otherwise they are skipped.
    """
    out = []
    need = r
    for v in range(n):
        if need == 0:
            break
        below = math.comb(n - v - 1, need - 1)
        if index < below:
            out.append(v)
            need -= 1
        else:
            index -= below
    return tuple(out)


# ---------------------------------------------------------------------------
# reference delta and greedy: everything recounted from plain edge lists
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _weight(r: int, d: int) -> Fraction:
    """w(0) = 1 and w(d) = (1 + ((r-1)d^2 - d) w(d-1)) / (1 + (r-1)d^2)."""
    if d == 0:
        return Fraction(1)
    c = (r - 1) * d * d
    return (1 + (c - d) * _weight(r, d - 1)) / (1 + c)


def _potential(r: int, verts: set, edges: list) -> Fraction:
    """Sum of w(degree) over verts, degrees counted in the edge list."""
    return sum(
        (_weight(r, sum(1 for e in edges if v in e)) for v in verts), Fraction(0)
    )


def reference_delta(h: Hypergraph, r: int, x: int, slot) -> Fraction:
    """1 + potential(H - S) - potential(H) for S = {x} u slot, by definition.

    H - S drops the vertices of S and every edge meeting S; both
    potentials are recounted over the whole vertex and edge lists.
    """
    gone = {x, *slot}
    verts = set(range(h.n))
    edges = [frozenset(e) for e in h.edges]
    rest = [e for e in edges if not e & gone]
    return 1 + _potential(r, verts - gone, rest) - _potential(r, verts, edges)


def reference_slots(edges, x: int, r: int) -> list[set]:
    """The r - 1 slots of x, scanning the whole edge list for x's edges.

    Slot j holds the j-th smallest vertex of each edge through x (minus
    x), or its largest when the edge has fewer.  A vertex on a
    one-vertex edge has no slots; a vertex on no edge has r - 1 empty
    ones.
    """
    slots = [set() for _ in range(r - 1)]
    for e in edges:
        if x in e:
            rest = sorted(v for v in e if v != x)
            if not rest:
                return []
            for j, slot in enumerate(slots):
                slot.add(rest[min(j, len(rest) - 1)])
    return slots


def reference_greedy(
    h: Hypergraph, r: int, unsafe: bool = False
) -> tuple[Step, ...]:
    """The greedy's steps, re-derived from scratch at every step.

    Takes the smallest isolated vertex when there is one; otherwise the
    first (x, slot index) candidate, in that order, whose exact delta
    1 + potential(H - S) - potential(H), S = {x} u slot, is largest.
    The slots are reference_slots over the live edges, and the run
    stops when no vertex is isolated or has a slot.  Degrees, weights,
    potentials and slots are recomputed from the live edge list for
    every candidate.  Unless unsafe is set, after each step the residual
    must still be r-uniform, linear and triangle-free.
    """
    verts = set(range(h.n))
    edges = [frozenset(e) for e in h.edges]
    steps = []
    while verts:
        before = _potential(r, verts, edges)
        isolated = [v for v in sorted(verts) if not any(v in e for e in edges)]
        if isolated:
            x, slot = isolated[0], ()
            after = _potential(r, verts - {x}, edges)
        else:
            best = None
            for x in sorted(verts):
                for rset in reference_slots(edges, x, r):
                    gone = rset | {x}
                    rest = [e for e in edges if not e & gone]
                    delta = 1 + _potential(r, verts - gone, rest) - before
                    if best is None or delta > best[0]:
                        best = (delta, x, tuple(sorted(rset)))
            if best is None:
                break
            delta, x, slot = best
            after = before + delta - 1
        steps.append(Step(x, slot, before, after))
        gone = set(slot) | {x}
        verts -= gone
        edges = [e for e in edges if not e & gone]
        if not unsafe:
            residual = Hypergraph(h.n, edges)
            assert all(len(e) == r for e in edges)
            assert brute_linear(residual) and brute_triangle_free(residual)
    return tuple(steps)
