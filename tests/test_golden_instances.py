"""Random instances are frozen, at the sizes the benchmark and CLI use.

golden/instances.json holds three sha256 digests.  The first two were
recorded while the unranker still bisected and the generator still
accepted edges through a whole pair index:

* ``instances`` covers, for every spec in SPECS, the spec, the
  complete flag and format_hg of what ``generate`` returns;
* ``gen_n3200_r4`` is the digest of the stdout of
  ``python -m hyperind gen --family random --n 3200 --r 4 --m 3200
  --seed 0``, which CI also compares with ``sha256sum`` against the
  installed package;
* ``gen_n100000_r3`` is the same digest for ``--n 100000 --r 3
  --m 100000 --seed 0``, the north-star size, checked in CI only
  (about 2 s per process).

Any change to the generator must leave all three unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import hyperind as hi
from hyperind.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "instances.json").read_text())

# (n, r, m, seed) of random instances
SPECS = (
    # the survey workload: n = 800, r = 3 and 4, instance seeds 0-3
    [(800, r, 800, seed) for r in (3, 4) for seed in range(4)]
    # the greedy corpus (r, n, m, seed in bench/workloads.py), full and tiny
    + [(n, r, m, s) for r, n, m, s in (
        (3, 120, 120, 1), (3, 160, 160, 2), (4, 160, 160, 3), (4, 200, 200, 4),
        (3, 30, 30, 1), (4, 40, 20, 2),
    )]
    # the exact corpus: r = 3, m = n, full and tiny
    + [(n, 3, n, s) for n, s in (
        (40, 5), (40, 1), (40, 0), (44, 2), (44, 1), (46, 1), (30, 0), (30, 1),
    )]
    # the cli workload's sizes
    + [(n, 3, n, seed) for n in (100, 200) for seed in range(4)]
    # large complete instances
    + [(3200, 3, 3200, 0), (3200, 4, 3200, 0)]
    # other uniformities at small n
    + [(n, r, m, seed) for n, r, m in ((30, 2, 40), (40, 5, 10), (60, 6, 12))
       for seed in range(3)]
    # underfilled: the rejection cap stops these short of m
    + [(4, 3, 3, 0), (9, 3, 40, 0), (12, 5, 10, 1), (6, 2, 20, 2)]
)


def test_generated_instances_frozen():
    sha = hashlib.sha256()
    underfilled = 0
    for n, r, m, seed in SPECS:
        h, complete = hi.generate(hi.InstanceSpec("random", n=n, r=r, m=m, seed=seed))
        underfilled += not complete
        sha.update(f"random {n} {r} {m} {seed} {complete}\n".encode())
        sha.update(hi.format_hg(h).encode())
    assert underfilled >= 4
    assert sha.hexdigest() == GOLDEN["instances"]


def test_gen_cli_output_frozen(capsys):
    argv = ["gen", "--family", "random", "--n", "3200", "--r", "4", "--m", "3200"]
    assert main([*argv, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["gen_n3200_r4"]
