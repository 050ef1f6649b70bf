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
from numbers import Integral
from typing import Iterable, NamedTuple, Optional

from . import _EXPORTS
from .core import Hypergraph
from .errors import BadArgument, HypothesisViolated

__all__ = list(_EXPORTS["algorithms"])


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
            "independent_set": self.independent_set,
            "guarantee": as_ratio(self.guarantee),
            "steps": [
                {"x": s.x, "R": s.slot, "delta": as_ratio(s.delta)}
                for s in self.steps
            ],
            "guaranteed": self.guaranteed,
        }
        return json.dumps(payload)


class _Residual:
    """Live incident-edge sets and degrees in original vertex ids, each
    vertex's slots, and a table of edge-removal gains.

    The weights w(0..max degree) are scaled by L, the lcm of their
    denominators, so W[d] = w(d) * L is an int, and gain[d] =
    W[d - 1] - W[d] is what a vertex of degree d gains when it loses one
    edge.  deltas returns the exact step deltas times L as ints; only a
    chosen step's delta becomes a Fraction.  deg[v] is v's live degree, 0
    once v is deleted or released (left on no live edge); delete keeps it
    and inc in step, and drops the cached slots of every vertex it touches.
    """

    def __init__(self, h: Hypergraph, r: int):
        from .bounds import potential_weight

        self.edges = h.edges
        self.r = r
        self.inc = [set(ix) for ix in h._incident]
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

        Each live edge through x gives the list of its other vertices,
        ascending.  Slot j is the sorted set of each list's j-th vertex,
        or its last one when the list is shorter, for j < min(r, k) - 1,
        k the longest live edge through x: any later slot would repeat
        the last one, and the first-maximum rule never picks a repeat.
        On r-uniform linear input the r - 1 slots are disjoint, each has
        one vertex per live edge through x, and together they cover x's
        live neighbourhood.  x has no slots when one of the lists is
        empty, so a vertex on a live one-vertex edge is never kept.
        The slots depend on x's live edges only, so they are kept until
        delete removes one of them.
        """
        slots = self._slots[x]
        if slots is None:
            rests = [[v for v in self.edges[i] if v != x] for i in self.inc[x]]
            count = min(self.r - 1, max(map(len, rests), default=0))
            slots = self._slots[x] = [
                tuple(sorted({rest[min(j, len(rest) - 1)] for rest in rests}))
                for j in range(count if all(rests) else 0)
            ]
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

    def delete(self, s: set[int]) -> list[int]:
        """Delete s's live edges; return, sorted, the others it releases."""
        inc, deg, slots = self.inc, self.deg, self._slots
        freed = []
        for i in set().union(*(inc[v] for v in s)):
            for v in self.edges[i]:
                inc[v].discard(i)
                deg[v] -= 1
                slots[v] = None
                if not deg[v] and v not in s:
                    freed.append(v)
        return sorted(freed)


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
    pot = guarantee
    steps: list[Step] = []
    freed = [u for u in range(h.n) if not res.deg[u]]
    while True:
        for x in freed:  # an isolated vertex weighs exactly 1: delta 0
            steps.append(Step(x, (), pot, pot - 1))
            pot -= 1
        # keep the first maximum in (x, slot index) order
        best = None
        for u in filter(res.deg.__getitem__, range(h.n)):
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
        freed = res.delete({x, *rset})
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

    The contract: alpha, and exact=False when the node budget ran out so
    that alpha is only the best lower bound found; independent_set, an
    independent set of alpha vertices, namely the first set of that size
    the exclude-first search meets; and nodes, the search's own count.
    The witness and nodes may change whenever the search order does.
    """

    alpha: int
    independent_set: tuple[int, ...]
    exact: bool
    nodes: int


def exact_alpha(h: Hypergraph, budget: Optional[int] = None) -> AlphaResult:
    """Branch-and-bound independence number.

    A node holds the undecided and included vertices and the live edges,
    those with no excluded vertex yet: as a bitmask of edge indexes and
    as a list of their vertex masks in index order.

    Each node first applies two reductions of d-Hitting Set (alpha = n -
    tau; Weihe 1998, Abu-Khzam 2010), which on linear input shrink to:
      - unit: the lowest-index live edge with exactly one undecided
        vertex has it excluded.  No live edge is left with none, since
        exclusions only kill edges and an inclusion, by leaf or branch,
        leaves each of its live edges another undecided vertex;
      - leaf: failing that, the lowest-id undecided vertex on exactly
        one live edge is included.  That edge still holds another
        undecided vertex, since unit is checked first, and swapping it
        for the leaf never loses.
    They fire one at a time until neither does.  Pending bitmasks hold a
    superset of the unit edges and leaves; edges pop before vertices,
    lowest bit first, and each pop re-checks its rule.  The root has
    every edge and vertex pending, an inclusion adds the included
    vertex's edges, and an exclusion of x the undecided vertices on x's
    edges.  Only inclusions make units and only exclusions make leaves,
    so this finds the same rule in the same order as a full scan would.

    The node then drops from its live-edge list the edges that hold an
    excluded vertex and sorts the undecided parts of the rest once,
    stably, by size: smallest first, and in index order within a size.
    Walking that list, the search packs each part disjoint from the
    parts packed before it; each packed part forces one more exclusion,
    so a node is pruned as soon as |included| + |undecided| - packed <=
    best.  Such a subtree cannot beat the incumbent, so the bound saves
    nodes without changing which sets become incumbents.  A node that
    survives branches include/exclude on the undecided vertex of highest
    live degree over the list's prefix of smallest parts, lowest id on
    ties.  When no edge is live, all
    undecided vertices are taken at once.  Exploration is exclude-first
    so a good incumbent appears on the first descent: a node pushes its
    include child, which shares its live-edge list, and becomes its
    exclude child in place.  Every node is counted before the budget is
    checked, so a run that exhausts the budget stops with nodes ==
    budget + 1 and flags the result inexact.

    The leaf rule peels tree-like parts, so a loose path or a matching
    is solved at the root.  The first complete random r=3 instance with
    m = n takes 89 / 443 / 581 / 2,367 nodes at n = 50 / 80 / 100 / 120,
    and n = 120 takes about 0.1 s on a 2-vCPU Xeon with Python 3.11.7;
    n = 175 takes 16,793 nodes, about 1 s.

    Only an exact alpha is fixed by the instance.  The witness is an
    independent set of alpha vertices, the first maximum set this search
    meets, and nodes is the search's own count; both, and so whether a
    given budget suffices, may change whenever the branching order does.

    Raises ValueError when budget is a bool, not an integer, or negative.
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, Integral):
            raise BadArgument(f"budget must be an int or None, got {budget!r}")
        if budget < 0:
            raise BadArgument(f"budget must be non-negative, got {budget}")
    n = h.n
    edge_masks = []
    vmask = [0] * n  # vertex -> mask of the indexes of its edges
    near = [0] * n  # vertex -> mask of the vertices of its edges
    for i, e in enumerate(h.edges):
        em = 0
        for v in e:
            em |= 1 << v
            vmask[v] |= 1 << i
        edge_masks.append(em)
        for v in e:
            near[v] |= em
    full = (1 << n) - 1
    best = 0
    best_mask = 0
    nodes = 0
    exact = True
    # (undecided, included, live, live-edge list, pending edges, pending
    # vertices): every unit edge and every leaf of a node is pending
    every_edge = (1 << len(edge_masks)) - 1
    stack: list[tuple[int, int, int, list[int], int, int]] = (
        [(full, 0, every_edge, edge_masks, every_edge, full)] if n else []
    )
    while exact and stack:
        und, inc, live, lm, pe, pv = stack.pop()
        while True:  # this node, then its exclude child in place
            nodes += 1
            if budget is not None and nodes > budget:
                exact = False
                break
            room = (und | inc).bit_count() - best
            while room > 0 and (pe or pv):  # unit and leaf rules
                if pe:  # unit: a live edge with one undecided vertex
                    low = pe & -pe
                    pe ^= low
                    if not low & live:
                        continue
                    eu = edge_masks[low.bit_length() - 1] & und
                    if eu & (eu - 1):  # never 0: see the docstring
                        continue
                    und ^= eu
                    room -= 1
                    x = eu.bit_length() - 1
                    live &= ~vmask[x]
                    pv = (pv | near[x]) & und
                else:  # leaf: an undecided vertex on exactly one live edge
                    low = pv & -pv
                    pv ^= low
                    le = vmask[low.bit_length() - 1] & live
                    if low & und and le.bit_count() == 1:
                        und ^= low
                        inc |= low
                        pe = le
            if room <= 0:
                break
            if not live:  # every edge has an excluded vertex: take all
                best, best_mask = best + room, und | inc
                break
            excluded = full ^ (und | inc)
            lm = [em for em in lm if not em & excluded]
            # stable: smallest first, index order within a size
            parts = sorted([em & und for em in lm], key=int.bit_count)
            packed = 0
            for eu in parts:
                if not eu & packed:
                    # disjoint from the packing: one more forced exclusion
                    packed |= eu
                    room -= 1
                    if not room:
                        break
            if not room:
                break
            pick_eu = 0  # branch inside the smallest live edges
            for eu in parts:
                if eu.bit_count() > parts[0].bit_count():
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
            und ^= bit
            # include, explored later: the edges of v_pick may turn unit
            stack.append((und, inc | bit, live, lm, vmask[v_pick], 0))
            # exclude in place: the other vertices of its edges may turn leaves
            live &= ~vmask[v_pick]
            pv = near[v_pick] & und
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
