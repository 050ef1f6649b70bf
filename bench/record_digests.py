"""Record the output digests every workload must reproduce, per seed.

    python3 bench/record_digests.py --seeds 64 [workload ...]

Runs one pass of each named workload (all by default) at full size for
seeds 0..N-1 and replaces their entries in bench/digests.json.  A run
whose seed is in that file fails any op whose output digest differs.  Record only at a commit whose outputs are right
(every independent check passes, or this script stops), and again only
when a change alters an output on purpose; commit the new file with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import DIGESTS, WORKLOADS, _import_hyperind, run_workload


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=64, help="record seeds 0..N-1")
    p.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}")
    args = p.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}")
    hi, _ = _import_hyperind()
    table: dict[str, dict[str, dict[str, str]]] = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    for workload in args.workloads or WORKLOADS:
        table[workload] = {}
        for seed in range(args.seeds):
            res = run_workload(hi, workload, seed, 0, False, setups=1)
            if res["failed"]:
                print("\n".join(res["problems"]), file=sys.stderr)
                return 1
            table[workload][str(seed)] = dict(sorted(res["digests"].items()))
        print(f"{workload}: {args.seeds} seeds recorded", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
