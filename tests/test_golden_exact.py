"""Exact-search results are frozen byte for byte.

exact_alpha promises alpha and exact; its witness is the first maximum
set the exclude-first search meets, and nodes is the search's own
count, so both move whenever the branching order does.  These digests
pin that order.  They were re-recorded once when the search began to
branch on the busiest undecided vertex over all smallest live edges,
not only the first one; that moved the witnesses too.  exact_nodes and
the CLI digests were re-recorded a second time when the packing bound
began to take the live edges smallest first rather than in index
order; that moved only the node counts.  All five keys were re-recorded
a third time when every node began to apply the unit and leaf rules
before the packing bound: a leaf is included ahead of any branching, so
the first maximum set the search meets moved with the node counts,
while every alpha stayed the same.

exact_witnesses is one sha256 over (alpha, independent_set, exact) of
exact_alpha on the criterion-7 small corpus, the seven-point plane and
the benchmark's r=3 exact corpus.  A bound that only prunes subtrees
unable to beat the incumbent leaves every incumbent, and so this
digest, unchanged; only the node count moves.

exact_nodes adds the node count, so it pins the search order itself:
any change to how a node is processed that keeps the same nodes in the
same order leaves it unchanged, budgeted runs included.

cli_exact_n60_r3, cli_exact_n100_r3, cli_exact_n120_r3 and
cli_exact_n175_r3 are the sha256 of the stdout of `hyperind exact g.hg`
on the file of `hyperind gen --family random --n N --r 3 --m N --seed 0`
at N = 60, 100, 120 and 175, each of which fills.  The tests here check
N = 60 and 100; CI checks all four without the test extras, the runs
from n = 100 up under a 60 s timeout as a guard against a slower search.
The n = 175 solve takes 16,793 nodes, about 1 s on a 2-vCPU Xeon.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import hyperind as hi
from hyperind.cli import main
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


def test_exact_nodes_frozen():
    runs = [(f"random-r3-n{n}-s{s}", first_complete(n, 3, s), None) for n, s in EXACT_CORPUS]
    runs += [(f"random-r3-n{n}", first_complete(n, 3), None) for n in (50, 60, 80)]
    for label, h in (("fano", hi.fano()), ("loose-path-3-3", hi.loose_path(3, 3))):
        runs += [(f"{label}-b{b}", h, b) for b in (None, 0, 1, 2, 10)]
    sha = hashlib.sha256()
    for label, h, budget in runs:
        res = hi.exact_alpha(h, budget)
        sha.update(
            f"{label} {res.alpha} {list(res.independent_set)} {res.exact} {res.nodes}\n".encode()
        )
    assert sha.hexdigest() == GOLDEN["exact_nodes"]


def test_exact_cli_output_frozen(tmp_path, capsys):
    for n in (60, 100):
        path = tmp_path / f"g{n}.hg"
        argv = ["gen", "--family", "random", "--n", str(n), "--r", "3", "--m", str(n)]
        assert main([*argv, "--seed", "0", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[f"cli_exact_n{n}_r3"]
