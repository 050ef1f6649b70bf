"""Greedy certificates are frozen byte for byte.

Each group of runs is reduced to one sha256 over every certificate's
JSON and every step's (x, slot, potential_before, potential_after); the
digests in golden/certificates.json were recorded before the greedy was
rewritten around its residual state (large_safe: before it scored
candidates as scaled integers; large_n1600: before it scored each
vertex's slots together), and any refactor of the greedy must
leave them unchanged.  A deliberate change to the certificate
format has to re-record them and say so.  cli_extract_n3200_r3 is the
sha256 of the stdout of `hyperind extract big.hg --r 3` on the file of
`hyperind gen --family random --n 3200 --r 3 --m 3200 --seed 0`, which
CI checks without the test extras.  cli_extract_n10000_r3 is the same
digest for `--n 10000 --m 10000`; the quadratic greedy takes about 50 s
there (2-vCPU Xeon), so CI checks it under a timeout and no test here
runs it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import hyperind as hi
from test_acceptance import _corpus_300

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "certificates.json").read_text()
)


def _digest(runs) -> str:
    sha = hashlib.sha256()
    for label, cert in runs:
        sha.update(f"{label}\n{cert.to_json()}\n".encode())
        for s in cert.steps:
            sha.update(
                f"{s.x} {list(s.slot)} {hi.as_ratio(s.potential_before)} "
                f"{hi.as_ratio(s.potential_after)}\n".encode()
            )
    return sha.hexdigest()


def test_criterion_6_corpus_certificates_frozen():
    runs = [
        (f"{i}-r{r}-n{h.n}", hi.greedy_extract(h, r))
        for i, (h, r) in enumerate(_corpus_300())
    ]
    assert _digest(runs) == GOLDEN["criterion6_safe"]


def test_unsafe_linear_corpus_certificates_frozen(linear_corpus):
    # includes the triangle-bearing cycles, the double-linearity
    # violation and the seven-point plane
    runs = [
        (label, hi.greedy_extract(h, r, unsafe=True))
        for label, h, r in linear_corpus
    ]
    assert _digest(runs) == GOLDEN["linear_unsafe"]


def first_complete(n: int, r: int, seed: int = 0) -> hi.Hypergraph:
    """The first complete random instance with m = n at seed or after it."""
    for s in range(seed, seed + 100):
        h, complete = hi.generate(hi.InstanceSpec("random", n=n, r=r, m=n, seed=s))
        if complete:
            return h
    raise AssertionError(f"no complete random instance at n={n}, r={r}")


def test_large_instance_certificates_frozen():
    # the largest frozen runs, with hundreds of steps each
    runs = [
        (f"random-r{r}-n{n}", hi.greedy_extract(first_complete(n, r), r))
        for n, r in ((800, 3), (400, 4))
    ]
    assert _digest(runs) == GOLDEN["large_safe"]


def test_n1600_certificate_frozen():
    # over a thousand steps: the gate for any change to how the greedy
    # rescores candidates between steps
    cert = hi.greedy_extract(first_complete(1600, 3), 3)
    assert _digest([("random-r3-n1600", cert)]) == GOLDEN["large_n1600"]
