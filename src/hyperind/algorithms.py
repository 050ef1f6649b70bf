"""Greedy independent-set extraction with exact certificates, and exact alpha.

The extractor repeatedly takes an isolated vertex when one exists and
otherwise scans every (vertex x, slot R) candidate, removing {x} union R
for the candidate whose exact rational delta

    delta = 1 + potential(H - ({x} u R)) - potential(H)

is largest.  On r-uniform linear triangle-free input the best delta is
never negative, so the potential drops by at most one per chosen vertex
and the final independent set has at least ceil(potential) vertices.
Every step is recorded so the guarantee can be re-audited offline.

The scan scores one vertex at a time.  Removing S = {x} u R deletes
every live edge meeting S; a vertex z on c_z of them drops from degree
d_z to d_z - c_z, and every vertex of S drops to degree 0, whose weight
is 1.  With weights scaled to integers W[d] = L * w(d), that gives

    L * delta = sum over z of (W[d_z - c_z] - W[d_z]) - |R| * L,

summed over the vertices of the deleted edges with no test of which
lie in S.  The counts over x's own live edges are taken once and shared
by all r - 1 slots of x; each slot adds only the live edges of its
vertices that miss x.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .core import Hypergraph
from .errors import HypothesisViolated

__all__ = [
    "Step",
    "ExtractionCertificate",
    "greedy_extract",
    "AlphaResult",
    "exact_alpha",
    "verify_independent",
]


class Step(NamedTuple):
    """One extraction step, in original vertex ids."""

    x: int
    slot: tuple[int, ...]
    potential_before: Fraction
    potential_after: Fraction

    @property
    def delta(self) -> Fraction:
        return 1 + self.potential_after - self.potential_before


class ExtractionCertificate(NamedTuple):
    """Audit trail of a greedy extraction.

    guarantee is the potential of the input; when guaranteed is True the
    independent set is certified to have at least ceil(guarantee)
    vertices.  guaranteed is False exactly when the structural
    preconditions were overridden with unsafe=True.
    """

    independent_set: tuple[int, ...]
    guarantee: Fraction
    steps: tuple[Step, ...]
    guaranteed: bool
    r: int

    def to_json(self) -> str:
        from .bounds import as_ratio

        payload = {
            "independent_set": list(self.independent_set),
            "guarantee": as_ratio(self.guarantee),
            "steps": [
                {"x": s.x, "R": list(s.slot), "delta": as_ratio(s.delta)}
                for s in self.steps
            ],
            "guaranteed": self.guaranteed,
        }
        return json.dumps(payload, separators=(", ", ": "))


class _Residual:
    """Live incident-edge sets and degrees in original vertex ids, each
    vertex's slots, and a table of edge-removal gains.

    The weights w(0..max degree) are scaled by L, the lcm of their
    denominators, so W[d] = w(d) * L is an int, and gain[d] =
    W[d - 1] - W[d] is what a vertex of degree d gains when it loses one
    edge.  deltas returns the exact step deltas times L as ints; only a
    chosen step's delta becomes a Fraction.  deg[v] is v's live degree;
    delete keeps it and inc in step, and drops the cached slots of every
    vertex whose live edges it changes.
    """

    def __init__(self, h: Hypergraph, r: int):
        from .bounds import potential_weight

        self.edges = h.edges
        self.r = r
        self.inc = [set(h.incident_edges(v)) for v in range(h.n)]
        self.deg = [len(s) for s in self.inc]
        self._slots: list[Optional[list[tuple[int, ...]]]] = [None] * h.n
        top = max(self.deg, default=0)
        w = [potential_weight(r, d) for d in range(top + 1)]
        self.scale = math.lcm(*(f.denominator for f in w))
        W = [f.numerator * (self.scale // f.denominator) for f in w]
        self.gain = [0] + [W[d - 1] - W[d] for d in range(1, top + 1)]

    def slots(self, x: int) -> list[tuple[int, ...]]:
        """Slots of x, as sorted tuples, that each meet every live edge
        through x.

        The j-th smallest vertex of each live edge through x (minus x)
        goes to slot j, and the last one fills the slots a short edge
        leaves over.  On r-uniform linear input the r - 1 slots are
        disjoint, each has one vertex per live edge through x, and
        together they cover x's live neighbourhood.  A vertex on a live
        one-vertex edge has no slots, so it is never kept.
        The slots depend on x's live edges only, so they are kept until
        delete removes one of them.
        """
        slots = self._slots[x]
        if slots is None:
            sets = [set() for _ in range(self.r - 1)]
            for i in self.inc[x]:
                rest = [v for v in self.edges[i] if v != x]
                if not rest:
                    sets = []
                    break
                for j, slot in enumerate(sets):
                    slot.add(rest[min(j, len(rest) - 1)])
            slots = self._slots[x] = [tuple(sorted(s)) for s in sets]
        return slots

    def deltas(self, x: int) -> list[int]:
        """L * (1 + potential(H - S) - potential(H)) for S = {x} | R, for
        each slot R of x in slot order.

        By the identity in the module docstring, the value is the sum of
        W[d_z - c_z] - W[d_z], which is gain[d_z] + ... +
        gain[d_z - c_z + 1], minus |R| * L.  So deg is lowered in place
        by one for each (deleted edge, vertex) pair, adding the gain at
        each degree passed: once over x's live edges for all the slots,
        then over each slot's other live edges, taken once each, so the
        value is exact on any hypergraph, linear or not.  deg is
        restored before returning.
        """
        gain, deg, inc, edges = self.gain, self.deg, self.inc, self.edges
        incx = inc[x]
        shared = 0
        for i in incx:
            for z in edges[i]:
                d = deg[z]
                shared += gain[d]
                deg[z] = d - 1
        out = []
        for rset in self.slots(x):
            delta = shared - len(rset) * self.scale
            extra = set().union(*map(inc.__getitem__, rset))
            extra -= incx
            for i in extra:
                for z in edges[i]:
                    d = deg[z]
                    delta += gain[d]
                    deg[z] = d - 1
            for i in extra:
                for z in edges[i]:
                    deg[z] += 1
            out.append(delta)
        for i in incx:
            for z in edges[i]:
                deg[z] += 1
        return out

    def delete(self, s: Iterable[int]) -> None:
        inc, deg, slots = self.inc, self.deg, self._slots
        for i in set().union(*(inc[v] for v in s)):
            for v in self.edges[i]:
                inc[v].discard(i)
                deg[v] -= 1
                slots[v] = None


def greedy_extract(h: Hypergraph, r: int, unsafe: bool = False) -> ExtractionCertificate:
    """Extract an independent set with an exact step-by-step certificate.

    Preconditions (r-uniform, linear, triangle-free) are enforced unless
    unsafe=True.  The override only skips that check and marks the
    certificate guaranteed=False: the extractor runs the same way, and
    its deltas stay exact but may go negative.  Every slot still meets
    every live edge through the kept vertex, so the result stays
    independent; a vertex on a one-vertex edge is never kept, and the
    run stops when no remaining vertex is isolated or has a slot.

    Ties are broken by smallest vertex id, then smallest slot index, so
    the output is deterministic.

    Raises HypothesisViolated when a precondition fails (and unsafe is
    not set).
    """
    from .bounds import potential
    from .properties import has_uniformity, is_linear, is_triangle_free

    guarantee = potential(h, r)  # validates r
    if not unsafe:
        if not has_uniformity(h, r):
            raise HypothesisViolated(f"input is not {r}-uniform")
        ok, wit = is_linear(h)
        if not ok:
            raise HypothesisViolated(f"input is not linear (edges {wit})")
        ok, twit = is_triangle_free(h)
        if not ok:
            raise HypothesisViolated(
                f"input has a triangle (vertices {twit['vertices']})"
            )
    res = _Residual(h, r)
    alive = list(range(h.n))
    pot = guarantee
    steps: list[Step] = []
    deg = res.deg
    while True:
        iso = next((u for u in alive if not deg[u]), None)
        if iso is not None:
            # the weight of an isolated vertex is exactly 1
            delta, x, rset = 0, iso, ()
        else:
            # keep the first maximum in (x, slot index) order
            best = None
            for u in alive:
                ds = res.deltas(u)
                if ds:
                    top = max(ds)
                    if best is None or top > best[0]:
                        best = (top, u, ds.index(top))
            if best is None:
                break
            delta, x, j = best
            rset = res.slots(x)[j]
        after = pot + Fraction(delta, res.scale) - 1
        steps.append(Step(x, rset, pot, after))
        gone = {x, *rset}
        res.delete(gone)
        alive = [v for v in alive if v not in gone]
        pot = after
    return ExtractionCertificate(
        independent_set=tuple(sorted(s.x for s in steps)),
        guarantee=guarantee,
        steps=tuple(steps),
        guaranteed=not unsafe,
        r=r,
    )


class AlphaResult(NamedTuple):
    """Independence number search result.

    exact=False means the node budget ran out and alpha is only the best
    lower bound found (with a witness set attaining it).
    """

    alpha: int
    independent_set: tuple[int, ...]
    exact: bool
    nodes: int


def exact_alpha(h: Hypergraph, budget: Optional[int] = None) -> AlphaResult:
    """Branch-and-bound independence number.

    A node holds the undecided and included vertices and the live edges,
    those with no excluded vertex yet, as bitmasks.  It branches
    include/exclude on the highest-degree undecided vertex of a smallest
    live edge, degrees counting live edges only.  While it scans its
    live edges in index order it packs those whose undecided parts are
    pairwise disjoint; each packed edge forces one more exclusion, so a
    node is pruned when |included| + |undecided| - packed <= best.  Such
    a subtree cannot beat the incumbent, so the bound saves nodes without
    changing which sets become incumbents.  When no edge is live, all
    undecided vertices are taken at once.  Exploration is exclude-first
    so a good incumbent appears on the first descent; with a node budget
    the search stops early and flags the result inexact.

    Raises ValueError when budget is negative.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    n = h.n
    edge_masks = []
    vmask = [0] * n  # vertex -> mask of the indexes of its edges
    for i, e in enumerate(h.edges):
        em = 0
        for v in e:
            em |= 1 << v
            vmask[v] |= 1 << i
        edge_masks.append(em)
    best = 0
    best_mask = 0
    nodes = 0
    exact = True
    stack: list[tuple[int, int, int]] = (
        [((1 << n) - 1, 0, (1 << len(edge_masks)) - 1)] if n else []
    )
    while stack:
        nodes += 1
        if budget is not None and nodes > budget:
            exact = False
            break
        und, inc, live = stack.pop()
        cand = und | inc
        room = cand.bit_count() - best
        if room <= 0:
            continue
        if not live:  # every edge has an excluded vertex: take all of cand
            best, best_mask = best + room, cand
            continue
        pick_eu = 0
        pick_sz = n + 1
        packed = 0
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            eu = edge_masks[low.bit_length() - 1] & und
            if not eu & packed:
                # disjoint from the packing: one more forced exclusion,
                # or no way out at all when the edge lies inside inc
                packed |= eu
                room = room - 1 if eu else 0
                if room <= 0:
                    break
            sz = eu.bit_count()
            if sz < pick_sz:
                pick_sz, pick_eu = sz, eu
        if room <= 0:
            continue
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
        stack.append((und & ~bit, inc | bit, live))  # include, explored second
        stack.append((und & ~bit, inc, live & ~vmask[v_pick]))  # exclude, first
    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return AlphaResult(alpha=best, independent_set=witness, exact=exact, nodes=nodes)


def verify_independent(
    h: Hypergraph, independent: Iterable[int]
) -> tuple[bool, Optional[int]]:
    """Check that no edge is fully contained in the given vertex set.

    Returns (True, None) or (False, i) with i the index of a violating
    edge.  Raises InvalidVertex when the set leaves the vertex range.
    """
    s = set()
    for v in independent:
        h._check_vertex(v)
        s.add(v)
    for i, e in enumerate(h.edges):
        if all(v in s for v in e):
            return False, i
    return True, None
