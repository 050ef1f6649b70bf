"""Hypergraphs on integer vertices, neighbourhoods, the .hg format.

A hypergraph has vertex set {0, ..., n-1} and a family of edges, each a set
of vertices.  Edges are canonicalized on construction: vertices within an
edge ascending, the edge list in ascending lexicographic order, duplicate
edges collapsed.  Instances are treated as immutable: nothing in the
package changes a Hypergraph after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import EmptyEdge, EmptyHypergraph, HgFormatError, InvalidVertex

__all__ = [
    "Hypergraph",
    "parse_hg",
    "format_hg",
    "read_hg",
    "write_hg",
]

# the generator families; defined here so the CLI parser can offer them
# without loading the generators module
FAMILIES = ("random", "loose_path", "loose_cycle", "matching", "fano")


class Hypergraph:
    """Immutable hypergraph: incidence built eagerly, neighbourhoods on first use.

    The incidence index lists, for each vertex, the indexes of its edges
    in ascending order.  The neighbourhoods are one frozenset per vertex,
    built from that index when a neighbourhood is first asked for; the
    predicates read both and keep no index of their own.

    Parameters
    ----------
    n : number of vertices; vertex ids are 0..n-1
    edges : iterable of vertex iterables

    Raises
    ------
    InvalidVertex : some vertex id is not in [0, n)
    EmptyEdge : some edge contains no vertices
    """

    __slots__ = ("n", "edges", "_incident", "_nbrs")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise InvalidVertex(f"vertex count must be non-negative, got {n}")
        canon = set()
        for e in edges:
            tup = tuple(sorted(set(e)))
            if not tup:
                raise EmptyEdge("edges must contain at least one vertex")
            if tup[0] < 0 or tup[-1] >= n:
                bad = tup[0] if tup[0] < 0 else tup[-1]
                raise InvalidVertex(f"vertex {bad} outside range [0, {n})")
            canon.add(tup)
        self.n = n
        self.edges: tuple[tuple[int, ...], ...] = tuple(sorted(canon))
        incident: list[list[int]] = [[] for _ in range(n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incident[v].append(i)
        self._incident = tuple(tuple(ix) for ix in incident)
        self._nbrs: tuple[frozenset[int], ...] | None = None

    @property
    def m(self) -> int:
        """Number of (distinct) edges."""
        return len(self.edges)

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidVertex(f"vertex {u} outside range [0, {self.n})")

    def degree(self, u: int) -> int:
        """Number of edges containing u."""
        self._check_vertex(u)
        return len(self._incident[u])

    def incident_edges(self, u: int) -> tuple[int, ...]:
        """Indexes (into .edges) of the edges containing u."""
        self._check_vertex(u)
        return self._incident[u]

    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Every vertex's neighbourhood, indexed by vertex; cached, read-only."""
        if self._nbrs is None:
            edges = self.edges
            self._nbrs = tuple(
                frozenset([w for i in inc for w in edges[i] if w != v])
                for v, inc in enumerate(self._incident)
            )
        return self._nbrs

    def neighborhood(self, u: int) -> frozenset[int]:
        """All vertices sharing an edge with u, excluding u itself."""
        self._check_vertex(u)
        return self._neighbor_sets()[u]

    def average_degree(self) -> Fraction:
        """Mean vertex degree, exact.

        Raises EmptyHypergraph when there are no vertices.
        """
        if self.n == 0:
            raise EmptyHypergraph("average degree needs at least one vertex")
        return Fraction(sum(len(e) for e in self.edges), self.n)

    def degree_histogram(self) -> dict[int, int]:
        """Map degree -> number of vertices with that degree."""
        hist: dict[int, int] = {}
        for u in range(self.n):
            d = len(self._incident[u])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# .hg text format
#
#   line 1:  n m
#   then m lines, one edge each: whitespace-separated 0-based vertex ids
#   lines starting with '#' are comments and may appear anywhere;
#   blank lines are ignored
# ---------------------------------------------------------------------------


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text into a Hypergraph.

    Raises HgFormatError for malformed text and InvalidVertex/EmptyEdge
    for ids outside the declared range.
    """
    payload = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        payload.append(line)
    if not payload:
        raise HgFormatError("no header line")
    head = payload[0].split()
    if len(head) != 2:
        raise HgFormatError(f"header must be 'n m', got {payload[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise HgFormatError(f"non-integer header field in {payload[0]!r}") from exc
    if m < 0:
        raise HgFormatError(f"negative edge count {m}")
    body = payload[1:]
    if len(body) != m:
        raise HgFormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        try:
            edges.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise HgFormatError(f"non-integer vertex id in {line!r}") from exc
    return Hypergraph(n, edges)


def format_hg(h: Hypergraph) -> str:
    """Serialize to .hg text, edges in canonical order, LF line endings."""
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hg(path: str) -> Hypergraph:
    """Load a .hg file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hg(fh.read())


def write_hg(h: Hypergraph, path: str) -> None:
    """Write a .hg file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_hg(h))
