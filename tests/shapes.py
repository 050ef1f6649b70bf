"""Hostile shapes: inputs on which a command's work or output can grow
with the square, cube or width of their size.

build(name, k) gives (n, edges) of shape name at size k; hg(name, k) its
.hg text as bytes, which

    python tests/shapes.py NAME K > file.hg

writes.  The property tests take the small sizes, and guards.py the
sizes that bracket a cap.  Standard library only, so guards.py runs
where hyperind is installed without extras.
"""

from __future__ import annotations

import sys


def _pendants(k: int) -> list[tuple[int, ...]]:
    return [tuple(range(k))] + [(v, k + v) for v in range(k)]


def _triangle(a: int) -> list[tuple[int, int]]:
    return [(a, a + 1), (a + 1, a + 2), (a, a + 2)]


# name -> k -> (n, edges)
SHAPES = {
    # one edge of k vertices
    "big_edge": lambda k: (k, [tuple(range(k))]),
    # linear, triangle-free: a big edge with a pendant edge at each vertex
    "pendants": lambda k: (2 * k, _pendants(k)),
    # linear: a big edge before a 2-uniform triangle at higher ids
    "edge_triangle": lambda k: (k + 3, [tuple(range(k))] + _triangle(k)),
    # linear: the pendant shape, then a 2-uniform triangle
    "pendants_triangle": lambda k: (2 * k + 3, _pendants(k) + _triangle(2 * k)),
    # non-linear: k edges (0, 1, i) all holding the pair {0, 1}
    "shared_pair": lambda k: (k + 2, [(0, 1, i) for i in range(2, k + 2)]),
    # non-linear, triangle-free: the pendant shape, then a separate pair
    # in two edges
    "separate_pair": lambda k: (
        2 * k + 3,
        _pendants(k) + [(2 * k, 2 * k + 1, 2 * k + 2), (2 * k, 2 * k + 1)],
    ),
    # non-linear: the pendant shape with one edge repeating the pair
    # {0, 1}, then a 2-uniform triangle
    "pair_triangle": lambda k: (
        2 * k + 4,
        _pendants(k) + [(0, 1, 2 * k)] + _triangle(2 * k + 1),
    ),
    # non-linear: a star whose hub is on no repeated pair, then a pair in
    # two edges
    "star_pair": lambda k: (
        k + 4,
        [(0, i) for i in range(1, k + 1)] + [(k + 1, k + 2, k + 3), (k + 1, k + 2)],
    ),
    # 2-uniform, linear, triangle-free: a hub of degree k
    "star": lambda k: (k + 1, [(0, i) for i in range(1, k + 1)]),
    # 3-uniform, linear, triangle-free: k petals (0, 2i + 1, 2i + 2)
    "sunflower": lambda k: (2 * k + 1, [(0, 2 * i + 1, 2 * i + 2) for i in range(k)]),
}


def build(name: str, k: int) -> tuple[int, list[tuple[int, ...]]]:
    """(n, edges) of shape name at size k."""
    return SHAPES[name](k)


def hg(name: str, k: int) -> bytes:
    """The .hg text of shape name at size k: a header, then one line per
    edge in the order build gives."""
    n, edges = build(name, k)
    lines = [f"{n} {len(edges)}"] + [" ".join(map(str, e)) for e in edges]
    return ("\n".join(lines) + "\n").encode()


if __name__ == "__main__":
    sys.stdout.buffer.write(hg(sys.argv[1], int(sys.argv[2])))
