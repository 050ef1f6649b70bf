"""Hypergraphs on integer vertices, neighbourhoods, the .hg format.

A hypergraph has vertex set {0, ..., n-1} and a family of edges, each a set
of vertices.  Edges are canonicalized on construction: vertices within an
edge ascending, the edge list in ascending lexicographic order, duplicate
edges collapsed.  Instances are treated as immutable: nothing in the
package changes a Hypergraph after construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from . import _EXPORTS
from .errors import EmptyEdge, EmptyHypergraph, HgFormatError, InvalidVertex

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = list(_EXPORTS["core"])

# the generator families; defined here so the CLI parser can offer them
# without loading the generators module
FAMILIES = ("random", "loose_path", "loose_cycle", "matching", "fano")

# largest vertex count a .hg header may declare: Hypergraph builds one
# incidence list per vertex before it reads any edge, about 80 bytes
# each, so the cap keeps a 13-byte header from asking for gigabytes
_MAX_HG_VERTICES = 10**6

# largest sum of k(k - 1) over the edge lines, k the ids on a line: it
# bounds the neighbour entries every predicate builds, and one edge of k
# vertices alone puts k(k - 1) into them, so the cap keeps a few
# kilobytes of text from asking for gigabytes
_MAX_HG_ENTRIES = 10**7


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
        from fractions import Fraction  # here, so check and gen never load it
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
#   then m lines, one edge each: 0-based vertex ids separated by spaces
#   or tabs
#   every number is -?[0-9]+ in ASCII: a line that is ASCII and holds no
#   '+' or '_' leaves int() nothing else to accept
#   lines end in '\n', optionally after one '\r'; any other control or
#   line-break character outside a comment is an error
#   lines starting with '#' are comments and may appear anywhere;
#   blank lines are ignored
# ---------------------------------------------------------------------------


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text into a Hypergraph.

    Raises HgFormatError for malformed text, including a declared vertex
    count above 10^6, edges whose sizes k sum k(k - 1) above 10^7, numbers
    such as '+2', '1_0' or non-ASCII digits and control characters other
    than a tab or a CR before the line end, and InvalidVertex/EmptyEdge
    for ids outside the declared range.  Every refusal but a wrong count
    of edge lines fires at the first line that breaks the rule.
    """
    return _parse_lines(text.split("\n"))


def _parse_lines(lines: Iterable[str]) -> Hypergraph:
    """The .hg rule over lines, each with or without its closing LF.

    Each line is checked, converted once and taken as the header or as
    an edge; parse_hg and read_hg both read through this one loop.
    """
    n = None
    edges = []
    entries = 0
    for raw in lines:
        line = raw.removesuffix("\n").removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        if not line.isascii() or "+" in line or "_" in line:
            raise HgFormatError(f"numbers must be -?[0-9]+ in ASCII, got {line!r}")
        if not line.replace("\t", " ").isprintable():
            raise HgFormatError(f"control character in {line!r}")
        fields = line.split()
        if n is None and len(fields) != 2:
            raise HgFormatError(f"header must be 'n m', got {line!r}")
        try:
            nums = [int(tok) for tok in fields]
        except ValueError as exc:
            what = "header field" if n is None else "vertex id"
            raise HgFormatError(f"non-integer {what} in {line!r}") from exc
        if n is None:
            n, m = nums
            if m < 0:
                raise HgFormatError(f"negative edge count {m}")
            if n > _MAX_HG_VERTICES:
                raise HgFormatError(f"vertex count {n} exceeds the cap {_MAX_HG_VERTICES}")
            continue
        entries += len(nums) * (len(nums) - 1)
        if entries > _MAX_HG_ENTRIES:
            raise HgFormatError(
                f"edges imply {entries} neighbour entries, above the cap {_MAX_HG_ENTRIES}"
            )
        edges.append(nums)
    if n is None:
        raise HgFormatError("no header line")
    if len(edges) != m:
        raise HgFormatError(f"expected {m} edge lines, found {len(edges)}")
    return Hypergraph(n, edges)


def format_hg(h: Hypergraph) -> str:
    """Serialize to .hg text, edges in canonical order, LF line endings."""
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hg(path: str) -> Hypergraph:
    """Load a .hg file line by line under parse_hg's rule.

    Lines end at LF only and reach the rule untranslated, so a bare CR
    stays inside its line and is refused there.  Bytes that are not UTF-8
    decode to lone surrogates, which the rule refuses outside a comment
    like any other non-ASCII character.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        return _parse_lines(fh)


def write_hg(h: Hypergraph, path: str) -> None:
    """Write a .hg file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_hg(h))
