"""Seeded instance families: random rejection sampling and named constructions.

Random instances are drawn with SplitMix64 (Steele, Lea, Flood 2014), a
published 64-bit generator that is trivial to reproduce in any language.
Every candidate edge consumes exactly one 64-bit draw, which is unranked
into an r-subset lexicographically, so a (seed, n, r) triple pins the
whole candidate stream; rejected candidates consume their draw.

Unranking follows the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3): each of the r elements is found by a binary search on a
difference of two binomials, so a draw costs O(r log n) calls to
math.comb rather than one per vertex.  A draw reduced modulo C(n, r)
reaches every rank only while C(n, r) <= 2^64, so larger candidate
spaces are refused with BadSpec instead of silently sampling a prefix
of them.  Below that limit the reduction is close to uniform but not
exactly: with q = floor(2^64 / C(n, r)), every rank is hit by q or q+1
of the 2^64 draws, so each candidate's probability is within a factor
1 + 1/q of uniform.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import NamedTuple

from .core import Hypergraph, PairIndex
from .errors import BadSpec

__all__ = [
    "InstanceSpec",
    "SplitMix64",
    "random_linear_triangle_free",
    "loose_path",
    "loose_cycle",
    "matching",
    "fano",
    "generate",
    "FAMILIES",
]

FAMILIES = ("random", "loose_path", "loose_cycle", "matching", "fano")

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

    With s the first vertex still free and k elements still needed, the
    subsets of {s..n-1} whose next element lies below v number
    C(n-s, k) - C(n-v, k) (hockey-stick identity).  The next element is
    the largest v in [s, n-k] for which that count is at most index; a
    binary search finds it with about log2(n) calls to comb, then the
    count is subtracted from index and s = v+1, k = k-1.  Requires
    0 <= index < C(n, r).
    """
    out = []
    s = 0
    for k in range(r, 0, -1):
        top = comb(n - s, k)
        # invariant: the count below lo, top - comb(n - lo, k), is <= index
        lo, hi, below = s, n - k, 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            count = top - comb(n - mid, k)
            if count <= index:
                lo, below = mid, count
            else:
                hi = mid - 1
        out.append(lo)
        index -= below
        s = lo + 1
    return tuple(out)


class InstanceSpec(NamedTuple):
    """Reproducible description of a generated instance."""

    family: str
    n: int
    r: int
    m: int
    seed: int = 0

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "seed": self.seed,
        }
        return json.dumps(payload, separators=(", ", ": "))

    @staticmethod
    def from_json(text: str) -> "InstanceSpec":
        data = json.loads(text)
        return InstanceSpec(
            family=data["family"],
            n=data["n"],
            r=data["r"],
            m=data["m"],
            seed=data.get("seed", 0),
        )


def _validate(spec: InstanceSpec) -> None:
    if spec.family not in FAMILIES:
        raise BadSpec(f"unknown family {spec.family!r}, expected one of {FAMILIES}")
    if spec.r < 2:
        raise BadSpec(f"uniformity must be at least 2, got {spec.r}")
    if spec.m < 0:
        raise BadSpec(f"edge target must be non-negative, got {spec.m}")
    if spec.seed < 0:
        raise BadSpec(f"seed must be non-negative, got {spec.seed}")


def random_linear_triangle_free(spec: InstanceSpec) -> tuple[Hypergraph, bool]:
    """Rejection-sample a random r-uniform linear triangle-free hypergraph.

    Candidate r-subsets are drawn one per RNG output, each with
    probability within a factor 1 + 1/floor(2^64 / C(n, r)) of uniform
    (see the module docstring), and accepted exactly when adding them
    keeps the edge set linear and triangle-free (both checked
    incrementally).  Sampling stops at spec.m edges, or after
    50 * spec.m consecutive rejections, in which case the second return
    value is False and the instance has fewer edges than requested.

    Raises BadSpec for invalid parameters, including, with a positive
    edge target, n < r (no candidate exists) and C(n, r) > 2^64 (a
    64-bit draw cannot reach every r-subset).
    """
    _validate(spec)
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
    index = PairIndex(n)
    rejections = 0
    cap = 50 * m_target
    while len(edges) < m_target and rejections < cap:
        e = _unrank_subset(rng.next() % total, n, r)
        if _accepts(e, index):
            index.add(len(edges), e)
            edges.append(e)
            rejections = 0
        else:
            rejections += 1
    return Hypergraph(n, edges), len(edges) == m_target


def _accepts(e: tuple[int, ...], index: PairIndex) -> bool:
    """Whether adding e keeps the indexed (linear) edge set linear and triangle-free."""
    edges_of, nbrs = index.edges_of, index.nbrs
    pairs = list(combinations(e, 2))
    # linearity: no pair of the candidate may already be covered (this
    # also rejects duplicate edges)
    if any(pair in edges_of for pair in pairs):
        return False
    # triangle-freeness: the candidate would host the pair {a, b} of a
    # triangle whose other two pairs lie in two distinct existing edges;
    # on linear input each covered pair lies in exactly one edge
    for a, b in pairs:
        for c in nbrs[a] & nbrs[b]:
            ea = edges_of[(min(a, c), max(a, c))]
            eb = edges_of[(min(b, c), max(b, c))]
            if ea != eb:
                return False
    return True


def loose_path(k: int, r: int) -> Hypergraph:
    """k edges in a row, consecutive edges sharing exactly one vertex.

    n = k(r-1) + 1 vertices; edge i covers i(r-1) .. i(r-1)+r-1.
    """
    if k < 1:
        raise BadSpec(f"path needs at least one edge, got k={k}")
    if r < 2:
        raise BadSpec(f"uniformity must be at least 2, got {r}")
    edges = [tuple(range(i * (r - 1), i * (r - 1) + r)) for i in range(k)]
    return Hypergraph(k * (r - 1) + 1, edges)


def loose_cycle(k: int, r: int) -> Hypergraph:
    """k edges in a ring, consecutive edges sharing exactly one vertex.

    n = k(r-1) vertices; needs k >= 3.  At k = 3 the three link vertices
    form a triangle; for k >= 4 non-consecutive edges are disjoint, so
    the cycle is triangle-free.
    """
    if k < 3:
        raise BadSpec(f"cycle needs at least three edges, got k={k}")
    if r < 2:
        raise BadSpec(f"uniformity must be at least 2, got {r}")
    n = k * (r - 1)
    edges = [
        tuple(range(i * (r - 1), i * (r - 1) + r - 1)) + ((i + 1) * (r - 1) % n,)
        for i in range(k)
    ]
    return Hypergraph(n, edges)


def matching(k: int, r: int) -> Hypergraph:
    """k pairwise disjoint edges; n = k*r vertices."""
    if k < 1:
        raise BadSpec(f"matching needs at least one edge, got k={k}")
    if r < 2:
        raise BadSpec(f"uniformity must be at least 2, got {r}")
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
    """
    _validate(spec)
    if spec.family == "random":
        return random_linear_triangle_free(spec)
    if spec.family == "loose_path":
        return loose_path(spec.m, spec.r), True
    if spec.family == "loose_cycle":
        return loose_cycle(spec.m, spec.r), True
    if spec.family == "matching":
        return matching(spec.m, spec.r), True
    return fano(), True
