"""The four benchmark workloads: inputs from a seed, timed ops, output checks.

Every workload is a closed loop with one client: the runner calls each
op's ``work`` and waits for it before starting the next.  ``work`` is the
timed part; ``check`` runs afterwards, untimed, and returns the bytes to
digest, a list of problems (empty when the output is right) and the
op's work counts.  Checks in ``check`` use only the benchmark's own code
or values computed before the op, so they do not trust the code under
test to grade itself.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = tuple[bytes, list[str], dict[str, int]]

# The greedy and exact inputs are fixed lists rather than drawn from the
# run's seed, which only sets the order of the ops: the cost of one op
# differs between random instances of one size (greedy calls by up to
# 1.3x, branch-and-bound nodes by up to 4x), which would make these
# workloads' times follow the seed more than the code.
#
# r=3 linear triangle-free instances with m = n, one (n, instance seed)
# per entry.  One heavy instance (46, 1) keeps the tail in view; an even
# count makes op_p50_ms the mean of two ops.
EXACT_CORPUS = {
    "full": [(40, 5), (40, 1), (40, 0), (44, 2), (44, 1), (46, 1)],
    "tiny": [(30, 0), (30, 1)],
}
# (r, n, m, instance seed); r=4 needs m < n to fill at small n
GREEDY_CORPUS = {
    "full": [(3, 120, 120, 1), (3, 160, 160, 2), (4, 160, 160, 3), (4, 200, 200, 4)],
    "tiny": [(3, 30, 30, 1), (4, 40, 20, 2)],
}
SURVEY_N = {"full": 800, "tiny": 200}
SURVEY_D_MAX = {"full": 400, "tiny": 8}
# (subcommand, instance size); the cli workload cycles through these
CLI_N = {
    "full": {"gen": 200, "check": 200, "extract": 100, "exact": 30, "compare": 30},
    "tiny": {"gen": 30, "check": 30, "extract": 30, "exact": 30, "compare": 30},
}
CLI_D_MAX = {"full": 40, "tiny": 8}


@dataclass
class Op:
    name: str  # stable key of the op's recorded digest
    work: Callable[[], object]
    check: Callable[[object], Check]
    span: str = "bench.op"  # name of the benchmark's span around work()


@dataclass
class Context:
    hi: object  # the hyperind package
    size: str  # "full", or "tiny" for checking the benchmark itself
    root: str  # checkout root
    tmp: str  # scratch directory inside the checkout
    workers: int  # thread budget, at most the CPU count
    instance_seeds: list[int]  # drawn from the run's seed


def _independent(edges, chosen) -> bool:
    s = set(chosen)
    return not any(all(v in s for v in e) for e in edges)


def _linear(edges, r: int, n: int) -> bool:
    pairs = set()
    for e in edges:
        if len(set(e)) != r or min(e) < 0 or max(e) >= n:
            return False
        for i in range(r):
            for j in range(i + 1, r):
                p = (min(e[i], e[j]), max(e[i], e[j]))
                if p in pairs:
                    return False
                pairs.add(p)
    return True


def _instance(hi, n: int, r: int, seed: int, m: int = 0):
    """A full instance; the next seeds are tried when the generator underfills."""
    for s in range(seed, seed + 8):
        h, complete = hi.generate(hi.InstanceSpec("random", n=n, r=r, m=m or n, seed=s))
        if complete:
            return h
    raise RuntimeError(f"generator underfilled n={n} r={r} seeds {seed}..{s}")


def _report_ok(rep, r: int) -> list[str]:
    if rep.uniform_r == r and rep.linear and rep.triangle_free:
        return []
    return [f"report rejects a {r}-uniform linear triangle-free input"]


# ---------------------------------------------------------------------------
# greedy: op = certify one instance
# ---------------------------------------------------------------------------


def greedy(ctx: Context) -> list[Op]:
    hi = ctx.hi
    ops = []
    for r, n, m, s in GREEDY_CORPUS[ctx.size]:
        h = _instance(hi, n, r, s, m)

        def work(h=h, r=r):
            rep = hi.property_report(h)
            pot = hi.potential(h, r)
            cert = hi.greedy_extract(h, r)
            ok, _ = hi.verify_independent(h, cert.independent_set)
            return rep, pot, cert, ok, cert.to_json()

        def check(out, h=h, r=r) -> Check:
            rep, pot, cert, ok, text = out
            chosen = cert.independent_set
            need = math.ceil(cert.guarantee)
            problems = _report_ok(rep, r)
            if not ok or not _independent(h.edges, chosen):
                problems.append("greedy set is not independent")
            if cert.guarantee != pot or not cert.guaranteed:
                problems.append("certificate guarantee differs from potential")
            if len(chosen) < need:
                problems.append(f"|I| = {len(chosen)} < ceil(guarantee) = {need}")
            counts = {
                "greedy_steps": len(cert.steps),
                "greedy_isolated_steps": sum(1 for s in cert.steps if not s.slot),
                "greedy_slack": len(chosen) - need,
            }
            return (rep.to_json() + "\n" + text).encode(), problems, counts

        ops.append(Op(f"r{r}-n{n}", work, check))
    # warm-up: fill the weight caches on a tiny instance
    hi.greedy_extract(hi.loose_path(3, 3), 3)
    return ops


# ---------------------------------------------------------------------------
# exact: op = one exact_alpha solve, no budget
# ---------------------------------------------------------------------------


def exact(ctx: Context) -> list[Op]:
    hi = ctx.hi
    ops = []
    for n, s in EXACT_CORPUS[ctx.size]:
        h = _instance(hi, n, 3, s)
        lower = math.ceil(hi.potential(h, 3))

        def work(h=h):
            return hi.exact_alpha(h)

        def check(res, h=h, lower=lower) -> Check:
            problems = []
            if not res.exact:
                problems.append("search stopped without a budget")
            if len(res.independent_set) != res.alpha:
                problems.append("witness size differs from alpha")
            if not _independent(h.edges, res.independent_set):
                problems.append("witness is not independent")
            if not lower <= res.alpha <= h.n:
                problems.append(f"alpha {res.alpha} outside [{lower}, {h.n}]")
            # the witness and node count may change with the search order;
            # alpha may not
            return f"{res.alpha} {res.exact}".encode(), problems, {"exact_nodes": res.nodes}

        ops.append(Op(f"n{n}-s{s}", work, check))
    hi.exact_alpha(hi.loose_path(3, 3))
    return ops


# ---------------------------------------------------------------------------
# survey: op = one large instance end to end, or the bound tables
# ---------------------------------------------------------------------------


def survey(ctx: Context) -> list[Op]:
    hi = ctx.hi
    n = SURVEY_N[ctx.size]
    d_max = SURVEY_D_MAX[ctx.size]
    ops = []
    # two instances per r, so a typical op has more samples behind it
    for k, r in enumerate((3, 4, 3, 4)):
        spec = hi.InstanceSpec("random", n=n, r=r, m=n, seed=ctx.instance_seeds[k])

        def work(spec=spec, r=r):
            h, complete = hi.generate(spec)
            text = hi.format_hg(h)
            h2 = hi.parse_hg(text)
            rep = hi.property_report(h2)
            bounds = (
                hi.potential(h2, r),
                hi.caro_tuza_total(h2, r),
                hi.chishti_bound(h2, r),
            )
            return h, complete, text, h2, rep, bounds

        def check(out, spec=spec, r=r) -> Check:
            h, complete, text, h2, rep, (pot, ct, cz) = out
            problems = _report_ok(rep, r)
            if not complete or h.m != spec.m:
                problems.append(f"generator gave {h.m} of {spec.m} edges")
            if not _linear(h.edges, r, n):
                problems.append("generated instance is not linear and r-uniform")
            if h2 != h:
                problems.append("parse_hg(format_hg(h)) != h")
            if not pot >= ct > 0 or not cz > 0:
                problems.append("bounds out of order: need potential >= caro_tuza > 0")
            material = "\n".join(
                [text, rep.to_json(), hi.as_ratio(pot), hi.as_ratio(ct), f"{cz:.6f}"]
            )
            return material.encode(), problems, {"edges": h.m, "edge_target": spec.m}

        ops.append(Op(f"instance-r{r}-{k // 2}", work, check))
    # one tables op per r, so six ops make op_p50_ms the mean of the two
    # middle ones; r=3 on one and on two threads shows what the pool buys
    for r, workers in ((3, (ctx.workers, 1)), (4, (ctx.workers,))):

        def work(r=r, workers=workers):
            return [hi.table_to_csv(hi.bound_table(r, d_max, max_workers=w)) for w in workers]

        def check(csvs, r=r) -> Check:
            rows = [str(d) for d in range(d_max + 1)]
            problems = []
            if any([ln.split(",")[0] for ln in csv.splitlines()[1:]] != rows for csv in csvs):
                problems.append(f"table for r={r} lacks rows 0..{d_max}")
            if any(csv != csvs[0] for csv in csvs):
                problems.append(f"thread count changed the r={r} table")
            return csvs[0].encode(), problems, {}

        ops.append(Op(f"tables-r{r}", work, check))
    hi.property_report(hi.loose_path(3, 3))
    hi.bound_table(3, 4, max_workers=ctx.workers)
    return ops


# ---------------------------------------------------------------------------
# cli: op = one `python -m hyperind <sub>` process
# ---------------------------------------------------------------------------


def cli_env(root: str) -> dict[str, str]:
    """Environment for a hyperind child: src/ on the path, default threads."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HYPERIND_THREADS", None)
    return env


def run_cli(root: str, args: list[str]) -> subprocess.CompletedProcess:
    """One hyperind process, waited for; its output captured as text."""
    return subprocess.run(
        [sys.executable, "-m", "hyperind", *args],
        capture_output=True,
        text=True,
        env=cli_env(root),
        cwd=root,
        timeout=120,
    )


def _cert_problems(text: str, h) -> list[str]:
    cert = json.loads(text)
    chosen = cert["independent_set"]
    need = math.ceil(Fraction(cert["guarantee"]))
    problems = []
    if not _independent(h.edges, chosen):
        problems.append("extract set is not independent")
    if len(chosen) < need:
        problems.append(f"extract |I| = {len(chosen)} < {need}")
    return problems


def cli(ctx: Context) -> list[Op]:
    hi = ctx.hi
    sizes = CLI_N[ctx.size]
    paths, graphs = {}, {}
    for k, sub in enumerate(("check", "extract", "exact", "compare")):
        h = _instance(hi, sizes[sub], 3, ctx.instance_seeds[k])
        paths[sub] = os.path.join(ctx.tmp, f"{sub}.hg")
        graphs[sub] = h
        hi.write_hg(h, paths[sub])
    n_gen = sizes["gen"]
    argv = {
        "gen": ["gen", "--family", "random", "--n", str(n_gen), "--r", "3",
                "--m", str(n_gen), "--seed", str(ctx.instance_seeds[4])],
        "check": ["check", paths["check"]],
        "extract": ["extract", paths["extract"], "--r", "3"],
        "exact": ["exact", paths["exact"]],
        "bounds-table": ["bounds-table", "--r", "4", "--d-max", str(CLI_D_MAX[ctx.size])],
        "compare": ["compare", paths["compare"], "--r", "3"],
    }
    ops = []
    for sub, args in argv.items():

        def work(args=args):
            return run_cli(ctx.root, args)

        def check(proc, sub=sub) -> Check:
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
            material = f"{proc.returncode}\n{proc.stdout}"
            if proc.returncode == 0 and sub == "extract":
                problems += _cert_problems(proc.stdout, graphs[sub])
            if proc.returncode == 0 and sub == "exact":
                res = json.loads(proc.stdout)
                wit = res["independent_set"]
                if not res["exact"] or len(wit) != res["alpha"]:
                    problems.append("exact result inexact or witness size != alpha")
                if not _independent(graphs[sub].edges, wit):
                    problems.append("exact witness is not independent")
                material = f"{proc.returncode}\n{res['alpha']} {res['exact']}"
            if proc.returncode == 0 and sub == "gen":
                h = hi.parse_hg(proc.stdout)
                if h.m != n_gen or not _linear(h.edges, 3, n_gen):
                    problems.append("gen output is not a full linear 3-uniform instance")
            return material.encode(), problems, {}

        ops.append(Op(sub, work, check, span=f"cli.{sub}"))
    # warm-up: one process, so the first timed one finds warm file caches
    run_cli(ctx.root, argv["check"])
    return ops


WORKLOADS: dict[str, Callable[[Context], list[Op]]] = {
    "greedy": greedy,
    "exact": exact,
    "survey": survey,
    "cli": cli,
}

