"""Seeded instance families: random rejection sampling and named constructions.

Random instances are drawn with SplitMix64 (Steele, Lea, Flood 2014), a
published 64-bit generator that is trivial to reproduce in any language.
Every candidate edge consumes exactly one 64-bit draw, which is unranked
into an r-subset lexicographically, so a (seed, n, r) triple pins the
whole candidate stream; rejected candidates consume their draw.

Unranking follows the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3): each of the r elements is the root of a binomial C(y, k)
against the remaining count, stepped to from a float guess that AM-GM
bounds, so a draw typically costs 2r - 1 exact math.comb calls and an
element at most 2 + floor(k/2), rather than one per vertex.  A draw reduced
modulo C(n, r) reaches every rank only while C(n, r) <= 2^64, so larger
candidate spaces are refused with BadSpec instead of silently sampling
a prefix of them.  Below that limit the reduction is close to uniform
but not exactly: with q = floor(2^64 / C(n, r)), every rank is hit by q
or q+1 of the 2^64 draws, so each candidate's probability is within a
factor 1 + 1/q of uniform.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import ceil, comb, exp, lgamma, log
from typing import NamedTuple

from . import _EXPORTS
from .core import (
    _MAX_HG_ENTRIES,
    _MAX_HG_VERTICES,
    FAMILIES,
    Hypergraph,
    _int_or_none,
)
from .errors import BadSpec

__all__ = list(_EXPORTS["generators"])

_M64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: 64-bit state advanced by the golden-gamma increment."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next(self) -> int:
        """Next 64-bit output."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)


def _unrank_subset(index: int, n: int, r: int) -> tuple[int, ...]:
    """index-th r-subset of {0..n-1} in lexicographic order.

    With k elements still needed and the next one free to be v or
    later, the subsets left number C(n-v, k) (hockey-stick identity).
    So with t the number of subsets from the current rank to the end,
    at first t = C(n, r) - index, the next element is n - y for the
    smallest y with C(y, k) >= t, and t then drops by C(y-1, k), the
    subsets passed over; the last element is n - t.  C(y, k) k!, a
    product of k factors with mean y - (k-1)/2, lies between (y-k+1)^k
    and (y - (k-1)/2)^k (AM-GM), so the answer is at least
    g = ceil((t k!)^(1/k) + (k-1)/2) and at most floor(k/2) above it.
    In floats g may land one step further either way (for t <= 2^64 the
    root is off by under 1e-4).  Stepping from g, down while
    C(y-1, k) >= t or up while C(y, k) < t, settles an element with at
    most 2 + floor(k/2) comb calls, and with 2 when g is exact, as for
    nearly every draw at large n.  Requires 1 <= r <= n and
    0 <= index < C(n, r).
    """
    out = []
    t = comb(n, r) - index
    hi = n
    for k in range(r, 1, -1):
        # the answer lies in [k, hi]: C(hi, k) >= t
        y = ceil(exp((log(t) + lgamma(k + 1)) / k) + (k - 1) / 2)
        y = k if y < k else hi if y > hi else y
        c = comb(y, k)
        if c >= t:
            below = comb(y - 1, k)
            while below >= t:
                y -= 1
                below = comb(y - 1, k)
        else:
            while c < t:
                below, y = c, y + 1
                c = comb(y, k)
        out.append(n - y)
        t -= below
        hi = y - 1
    out.append(n - t)
    return tuple(out)


class InstanceSpec(NamedTuple):
    """Reproducible description of a generated instance."""

    family: str
    n: int
    r: int
    m: int
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def _spec_int(v: object, name: str) -> int:
    """v as a plain int by the package's integer rule, else BadSpec."""
    i = _int_or_none(v)
    if i is None:
        raise BadSpec(f"{name} must be an integer, got {v!r}")
    return i


def _spec_r(r: object) -> int:
    r = _spec_int(r, "uniformity")
    if r < 2:
        raise BadSpec(f"uniformity must be at least 2, got {r}")
    return r


def _validate(spec: InstanceSpec) -> InstanceSpec:
    """spec with r, m, seed and, for random, n as plain ints; else BadSpec."""
    if spec.family not in FAMILIES:
        raise BadSpec(f"unknown family {spec.family!r}, expected one of {FAMILIES}")
    r = _spec_r(spec.r)
    m = _spec_int(spec.m, "edge target")
    if m < 0:
        raise BadSpec(f"edge target must be non-negative, got {m}")
    seed = _spec_int(spec.seed, "seed")
    if seed < 0:
        raise BadSpec(f"seed must be non-negative, got {seed}")
    n = _spec_int(spec.n, "vertex count") if spec.family == "random" else spec.n
    return spec._replace(n=n, r=r, m=m, seed=seed)


def random_linear_triangle_free(spec: InstanceSpec) -> tuple[Hypergraph, bool]:
    """Rejection-sample a random r-uniform linear triangle-free hypergraph.

    Candidate r-subsets are drawn one per RNG output, each with
    probability within a factor 1 + 1/floor(2^64 / C(n, r)) of uniform
    (see the module docstring), and accepted exactly when adding them
    keeps the edge set linear and triangle-free (both checked on the
    neighbour sets of the edges accepted so far).  Sampling stops at
    spec.m edges, or after 50 * spec.m consecutive rejections, in which
    case the second return value is False and the instance has fewer
    edges than requested.

    Raises BadSpec for invalid parameters, including, with a positive
    edge target, n < r (no candidate exists) and C(n, r) > 2^64 (a
    64-bit draw cannot reach every r-subset).
    """
    spec = _validate(spec)
    n, r, m_target = spec.n, spec.r, spec.m
    if n < 0:
        raise BadSpec(f"vertex count must be non-negative, got {n}")
    if m_target > 0 and n < r:
        raise BadSpec(f"no {r}-subset of {n} vertices exists")
    total = comb(n, r)
    if m_target > 0 and total > 1 << 64:
        raise BadSpec(
            f"C({n}, {r}) = {total} candidate edges exceed the 2^64 ranks "
            "one 64-bit draw can reach"
        )
    rng = SplitMix64(spec.seed)
    edges: list[tuple[int, ...]] = []
    nbrs: list[set[int]] = [set() for _ in range(n)]
    rejections = 0
    cap = 50 * m_target
    while len(edges) < m_target and rejections < cap:
        e = _unrank_subset(rng.next() % total, n, r)
        if _accepts(e, nbrs):
            for v in e:
                nbrs[v].update(e)
                nbrs[v].discard(v)
            edges.append(e)
            rejections = 0
        else:
            rejections += 1
    return Hypergraph(n, edges), len(edges) == m_target


def _accepts(e: tuple[int, ...], nbrs: list[set[int]]) -> bool:
    """Whether adding e to a linear triangle-free edge set keeps it so.

    nbrs[v] is the set of vertices that share an edge with v.  e is
    accepted exactly when every pair a < b of e has b not in N(a) and
    N(a) and N(b) disjoint.  The first condition is linearity: no pair
    of e is covered yet, which also rejects a duplicate edge.  Given
    it, a common neighbour c of a and b always closes a triangle
    (a, b, c) through e and the edges f through {a, c} and g through
    {b, c}: f and g are distinct, since one edge holding a, b and c
    would cover {a, b}; and neither is e, which is not yet added.
    Conversely a triangle that e would close uses e for one pair
    {a, b} of its vertices, and its third vertex is then a common
    neighbour of a and b.
    """
    for a, b in combinations(e, 2):
        na = nbrs[a]
        if b in na or not na.isdisjoint(nbrs[b]):
            return False
    return True


def loose_path(k: int, r: int) -> Hypergraph:
    """k edges in a row, consecutive edges sharing exactly one vertex.

    n = k(r-1) + 1 vertices; edge i covers i(r-1) .. i(r-1)+r-1.
    """
    k = _spec_int(k, "edge count")
    if k < 1:
        raise BadSpec(f"path needs at least one edge, got k={k}")
    r = _spec_r(r)
    edges = [tuple(range(i * (r - 1), i * (r - 1) + r)) for i in range(k)]
    return Hypergraph(k * (r - 1) + 1, edges)


def loose_cycle(k: int, r: int) -> Hypergraph:
    """k edges in a ring, consecutive edges sharing exactly one vertex.

    n = k(r-1) vertices; needs k >= 3.  At k = 3 the three link vertices
    form a triangle; for k >= 4 non-consecutive edges are disjoint, so
    the cycle is triangle-free.
    """
    k = _spec_int(k, "edge count")
    if k < 3:
        raise BadSpec(f"cycle needs at least three edges, got k={k}")
    r = _spec_r(r)
    n = k * (r - 1)
    edges = [
        tuple(range(i * (r - 1), i * (r - 1) + r - 1)) + ((i + 1) * (r - 1) % n,)
        for i in range(k)
    ]
    return Hypergraph(n, edges)


def matching(k: int, r: int) -> Hypergraph:
    """k pairwise disjoint edges; n = k*r vertices."""
    k = _spec_int(k, "edge count")
    if k < 1:
        raise BadSpec(f"matching needs at least one edge, got k={k}")
    r = _spec_r(r)
    edges = [tuple(range(i * r, i * r + r)) for i in range(k)]
    return Hypergraph(k * r, edges)


def fano() -> Hypergraph:
    """The seven-point plane: 3-uniform, linear, every pair adjacent.

    Not triangle-free; its independence number is 4.
    """
    lines = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    return Hypergraph(7, lines)


def generate(spec: InstanceSpec) -> tuple[Hypergraph, bool]:
    """Build the instance a spec describes.

    For the named families the edge count is spec.m (spec.n is derived
    and ignored); fano ignores every size field.  The second return
    value is False only when the random family stopped short of its
    edge target.

    Raises BadSpec, before building anything, for an instance whose .hg
    text parse_hg would refuse: more than 10^6 vertices, or m edges of r
    vertices with m r (r - 1) above 10^7 (the edge target, for random).
    """
    spec = _validate(spec)
    if spec.family != "fano":  # 7 vertices and 42 entries, whatever the spec
        k, r = spec.m, spec.r
        n = {
            "random": spec.n,
            "loose_path": k * (r - 1) + 1,
            "loose_cycle": k * (r - 1),
            "matching": k * r,
        }[spec.family]
        if n > _MAX_HG_VERTICES:
            raise BadSpec(f"vertex count {n} exceeds the cap {_MAX_HG_VERTICES}")
        if k * r * (r - 1) > _MAX_HG_ENTRIES:
            raise BadSpec(
                f"{k} edges of {r} vertices imply {k * r * (r - 1)} neighbour "
                f"entries, above the cap {_MAX_HG_ENTRIES}"
            )
    if spec.family == "random":
        return random_linear_triangle_free(spec)
    if spec.family == "loose_path":
        return loose_path(spec.m, spec.r), True
    if spec.family == "loose_cycle":
        return loose_cycle(spec.m, spec.r), True
    if spec.family == "matching":
        return matching(spec.m, spec.r), True
    return fano(), True
