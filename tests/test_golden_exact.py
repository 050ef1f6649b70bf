"""Exact-search results are frozen byte for byte.

One sha256 over (alpha, independent_set, exact) of exact_alpha on the
criterion-7 small corpus, the seven-point plane and the benchmark's
r=3 exact corpus.  The digest in golden/exact.json was recorded before
the search moved to live-edge masks and a packing bound.  A bound that
only prunes subtrees unable to beat the incumbent leaves every
incumbent, and so this digest, unchanged; only the node count moves.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import hyperind as hi
from test_golden_certificates import first_complete

GOLDEN = json.loads((Path(__file__).parent / "golden" / "exact.json").read_text())

# (n, seed) of the benchmark's exact corpus: the first complete random
# r=3 instance with m = n at that seed or after it
EXACT_CORPUS = [(40, 5), (40, 1), (40, 0), (44, 2), (44, 1), (46, 1)]


def test_exact_witnesses_frozen(small_corpus):
    runs = [(label, h) for label, h, _ in small_corpus]
    runs.append(("fano", hi.fano()))
    runs += [(f"random-r3-n{n}-s{s}", first_complete(n, 3, s)) for n, s in EXACT_CORPUS]
    sha = hashlib.sha256()
    for label, h in runs:
        res = hi.exact_alpha(h)
        sha.update(f"{label} {res.alpha} {list(res.independent_set)} {res.exact}\n".encode())
    assert sha.hexdigest() == GOLDEN["exact_witnesses"]
