"""Predicate results, neighbourhoods and generated instances are frozen.

One sha256 over, for each hypergraph, its property report JSON, the
results of is_linear, is_triangle_free and is_double_linear (or the
NotLinear it raises) with their witnesses, and every sorted
neighbourhood; the hypergraphs are about 2,000 seeded arbitrary ones
(mixed edge sizes, one-vertex edges, duplicate edges), the linear
corpus and the small corpus.  A second sha256 covers format_hg of
generated instances for r in {2, 3, 4}, underfilled specs included.
The digests in golden/properties.json were recorded before the
predicates and the generator moved onto one shared pair index; any
refactor of them must leave both unchanged.  A third sha256,
generated_large, covers format_hg of complete random instances at
n = 800 and 3200 (the generated digest stops at n = 60); it was
recorded while the unranker still scanned every vertex, before it
moved to a binary search.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import hyperind as hi
from hyperind.errors import NotLinear

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "properties.json").read_text()
)


def arbitrary_hypergraphs(count: int = 2000, seed: int = 0):
    """Seeded hypergraphs with n <= 12 and edges of 1 to 4 vertices.

    Edge vertices are drawn with replacement, so an edge may come out
    smaller than drawn, and about one edge in five repeats an earlier
    one, so duplicates collapse on construction.
    """
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(1, 12)
        edges: list[list[int]] = []
        for _ in range(rnd.randint(0, 10)):
            if edges and rnd.random() < 0.2:
                edges.append(list(rnd.choice(edges)))
            else:
                edges.append([rnd.randrange(n) for _ in range(rnd.randint(1, 4))])
        yield hi.Hypergraph(n, edges)


def _predicates_text(h: hi.Hypergraph) -> str:
    try:
        double = hi.is_double_linear(h)
    except NotLinear:
        double = "NotLinear"
    nbhds = [sorted(h.neighborhood(u)) for u in range(h.n)]
    return (
        f"{hi.format_hg(h)}{hi.property_report(h).to_json()}\n"
        f"{hi.is_linear(h)} {hi.is_triangle_free(h)} {double}\n{nbhds}\n"
    )


def test_predicates_and_neighbourhoods_frozen(small_corpus, linear_corpus):
    sha = hashlib.sha256()
    for i, h in enumerate(arbitrary_hypergraphs()):
        sha.update(f"arbitrary-{i}\n{_predicates_text(h)}".encode())
    # linear_corpus extends small_corpus; both are hashed, as named
    for label, h, _ in list(small_corpus) + list(linear_corpus):
        sha.update(f"{label}\n{_predicates_text(h)}".encode())
    assert sha.hexdigest() == GOLDEN["predicates"]


# (family, n, r, m, seed); the random specs with m far above what n
# admits stop at the rejection cap, underfilled
GENERATED = [
    ("random", n, r, m, seed)
    for r in (2, 3, 4)
    for n, m in ((12, 8), (20, 20), (30, 60), (60, 60), (9, 40))
    for seed in range(4)
] + [
    (family, 0, r, k, 0)
    for r in (2, 3, 4)
    for family, k in (
        ("loose_path", 3), ("loose_cycle", 4), ("matching", 2), ("fano", 0)
    )
]


def test_generated_instances_frozen():
    sha = hashlib.sha256()
    underfilled = 0
    for family, n, r, m, seed in GENERATED:
        h, complete = hi.generate(hi.InstanceSpec(family, n=n, r=r, m=m, seed=seed))
        underfilled += not complete
        sha.update(f"{family} {n} {r} {m} {seed} {complete}\n".encode())
        sha.update(hi.format_hg(h).encode())
    assert underfilled >= 12
    assert sha.hexdigest() == GOLDEN["generated"]


# (n, r) of complete random instances with m = n and seed 0
GENERATED_LARGE = [(800, 3), (800, 4), (3200, 3)]


def test_large_generated_instances_frozen():
    sha = hashlib.sha256()
    for n, r in GENERATED_LARGE:
        h, complete = hi.generate(hi.InstanceSpec("random", n=n, r=r, m=n, seed=0))
        assert complete
        sha.update(f"random {n} {r} {n} 0 {complete}\n".encode())
        sha.update(hi.format_hg(h).encode())
    assert sha.hexdigest() == GOLDEN["generated_large"]
