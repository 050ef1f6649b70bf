"""Benchmark of hyperind: one workload per run, in a fresh process.

    python3 bench/run.py --workload greedy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1        # every metric, every workload

A run imports hyperind from ``src/`` of the checkout it sits in, builds
its inputs from --seed (five times; set-up time is the median), then
repeats passes over the workload's ops until --seconds have elapsed.
Each op is timed, then checked and digested untimed.  Each time sample
is scaled by a fixed reference loop timed just before and just after
it, and time figures take each op's median over its k scaled samples,
one per pass (see speed.py and README.md).  The last stdout line is one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1).  The line
before it records the machine, the seed, the failure ratio, the scale
factors, the unscaled figures and the raw samples.

The garbage collector stays on during timed passes, as users run the
library; a collection between passes only gives each pass the same
starting heap.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer, layer_self_seconds  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS, Context, cli_env  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SETUPS = 5  # set-up repetitions per run; setup_s is their median
REF_PER_OP = 2  # reference loops timed before each op
REF_PER_SETUP = 3  # and before each set-up
CLI_SUBS = ("gen", "check", "extract", "exact", "bounds-table", "compare")

# per-layer time metrics: metric name -> span name, from traced passes
SPAN_SECONDS = {
    "algorithms.greedy_extract_s": "algorithms.greedy_extract",
    "algorithms.exact_alpha_s": "algorithms.exact_alpha",
    "algorithms.verify_independent_s": "algorithms.verify_independent",
    "properties.report_s": "properties.report",
    "properties.is_linear_s": "properties.is_linear",
    "properties.is_triangle_free_s": "properties.is_triangle_free",
    "properties.is_double_linear_s": "properties.is_double_linear",
    "properties.neighborhood_max_degree_s": "properties.neighborhood_max_degree",
    "generators.generate_s": "generators.generate",
    "bounds.potential_s": "bounds.potential",
    "bounds.chishti_bound_s": "bounds.chishti_bound",
    "bounds.bound_table_1w_s": "bounds.bound_table_1w",
    "bounds.bound_table_2w_s": "bounds.bound_table_2w",
    "core.parse_hg_s": "core.parse_hg",
    "core.format_hg_s": "core.format_hg",
    "core.hypergraph_build_s": "core.hypergraph_build",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_hyperind():
    """Import the package under test from src/ of this checkout."""
    init = os.path.join(ROOT, "src", "hyperind", "__init__.py")
    if not os.path.isfile(init):
        raise ImportError(f"no hyperind sources at {os.path.dirname(init)}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import hyperind

    elapsed = time.perf_counter() - start
    if os.path.abspath(hyperind.__file__) != init:
        raise ImportError(f"hyperind imported from {hyperind.__file__}, not {init}")
    return hyperind, elapsed


def machine(seed: int) -> dict:
    """The machine and software a result was measured on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(material: bytes) -> str:
    return hashlib.sha256(material).hexdigest()[:16]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def recorded_digests(workload: str, seed: int, size: str) -> dict[str, str]:
    """Digests recorded for this workload and seed; empty when none are."""
    if size != "full" or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def run_workload(
    hi,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    expected: Optional[dict[str, str]] = None,
    setups: int = SETUPS,
) -> dict:
    """Set up, run timed passes, check every op; return figures and digests."""
    rng = random.Random(seed)
    instance_seeds = [rng.randrange(2**32) for _ in range(8)]
    expected = expected or {}
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        # (seconds, index of the reference samples before it) per set-up
        speed, timed = Speed(), []
        for _ in range(setups):
            ref_at = speed.sample(REF_PER_SETUP)
            ctx = Context(hi, size, ROOT, tempfile.mkdtemp(dir=tmp),
                          min(2, os.cpu_count() or 1), instance_seeds)
            start = time.perf_counter()
            ops = WORKLOADS[workload](ctx)
            timed.append((time.perf_counter() - start, ref_at))
        speed.sample(REF_PER_SETUP)
        setup_s = (
            _median([t for t, _ in timed]),
            _median([t * speed.wall_scale(at, at + 2 * REF_PER_SETUP) for t, at in timed]),
        )
        rng.shuffle(ops)
        return _passes(hi, workload, ops, seconds, trace, expected, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _passes(hi, workload, ops, seconds, trace, expected, setup_s) -> dict:
    """Timed passes until --seconds; setup_s is (unscaled, scaled) seconds."""
    tracer = Tracer() if trace else None
    speed = Speed()
    seen: dict[str, str] = {}
    problems: list[str] = []
    attempted = failed = 0
    # op name -> [(wall, cpu, index of the reference samples before it)]
    # per pass, for untraced (False) and traced passes
    samples: dict[bool, dict[str, list[tuple[float, float, int]]]] = {False: {}, True: {}}
    traced_figures, counts = [], None
    start = time.perf_counter()
    k = 0
    while True:
        # a traced run alternates untraced and traced passes
        traced = trace and k % 2 == 1
        gc.collect()
        pass_counts: dict[str, int] = {}
        first_span = len(tracer.spans) if tracer else 0
        first_ref = len(speed.wall)
        outputs = []
        with tracer.instrument(hi) if traced else nullcontext():
            for op in ops:
                attempted += 1
                if tracer:
                    tracer.op = f"{k}:{op.name}"
                ref_at = speed.sample(REF_PER_OP)
                c0, t0 = _cpu_seconds(), time.perf_counter()
                try:
                    with tracer.span(op.span) if traced else nullcontext():
                        out = op.work()
                except Exception as exc:  # an op that raises counts as failed
                    failed += 1
                    problems.append(f"{op.name}: raised {exc!r}")
                    continue
                sample = (time.perf_counter() - t0, _cpu_seconds() - c0, ref_at)
                samples[traced].setdefault(op.name, []).append(sample)
                outputs.append((op, out))
        # checks run after the pass, so traced passes record no span for them
        for op, out in outputs:
            bad = _check(op, out, expected, seen, pass_counts)
            if bad:
                failed += 1
                problems.extend(f"{op.name}: {b}" for b in bad)
        del outputs
        if traced:
            pass_scale = speed.wall_scale(first_ref)
            figures = _layer_figures(tracer.summary(first_span))
            traced_figures.append({name: v * pass_scale for name, v in figures.items()})
        counts = counts if counts is not None else pass_counts
        k += 1
        # stop before a pass that would end past --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (k + 1) / k > seconds and (not trace or k >= 2):
            break
    speed.sample(REF_PER_OP)  # the reference after the last op
    kids = workload == "cli"
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if kids else resource.RUSAGE_SELF)
    plain = samples[False]
    scaled = {traced: _scaled(per_op, speed) for traced, per_op in samples.items()}
    raw = {
        "setup_s": setup_s[0],
        "wall_s": _pass_seconds(plain, 0),
        "op_p50_ms": _median(list(_op_seconds(plain, 0).values())) * 1e3,
        "cpu_s": _pass_seconds(plain, 1),
    }
    scale = {  # run-wide medians, for the record; ops are scaled one by one
        "wall": speed.wall_scale(),
        "cpu": speed.cpu_scale(),
    }
    wall_s = _pass_seconds(scaled[False], 0)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": seen,
        "passes": k,
        "samples": {name: [round(w, 6) for w, _, _ in v] for name, v in plain.items()},
        "reference_ms": [round(w * 1e3, 3) for w in speed.wall],
        "scale": scale,
        "unscaled": raw,
        "metrics": {
            "setup_s": (setup_s[1], "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (_median(list(_op_seconds(scaled[False], 0).values())) * 1e3, "ms"),
            "cpu_s": (_pass_seconds(scaled[False], 1), "s"),
            "peak_rss_mb": (rss.ru_maxrss / 1024, "MB"),
        },
    }
    if trace:
        layers = _layers(traced_figures, counts, kids, scale["wall"])
        traced_s = _pass_seconds(scaled[True], 0)
        layers["trace.wall_s"] = (traced_s, "s")
        layers["trace.overhead_ratio"] = (traced_s / wall_s - 1 if wall_s else 0.0, "1")
        result["layers"] = layers
        result["spans"] = tracer
    return result


def _scaled(per_op: dict[str, list[tuple[float, float, int]]], speed: Speed) -> dict:
    """Each sample scaled by the reference samples just before and after it."""
    out = {}
    for name, v in per_op.items():
        out[name] = [
            (w * speed.wall_scale(at, at + 2 * REF_PER_OP),
             c * speed.cpu_scale(at, at + 2 * REF_PER_OP))
            for w, c, at in v
        ]
    return out


def _op_seconds(per_op: dict[str, list[tuple]], i: int) -> dict[str, float]:
    """Each op's median over its samples (i = 0: wall, 1: CPU)."""
    return {name: _median([s[i] for s in v]) for name, v in per_op.items()}


def _pass_seconds(per_op: dict[str, list[tuple]], i: int) -> float:
    """One typical pass: the sum over ops of each op's median sample."""
    return sum(_op_seconds(per_op, i).values())


def _check(op, out, expected, seen, counts) -> list[str]:
    try:
        material, bad, op_counts = op.check(out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return [f"check raised {exc!r}"]
    d = _digest(material)
    if op.name in expected and expected[op.name] != d:
        bad.append(f"digest {d} != recorded {expected[op.name]}")
    if seen.setdefault(op.name, d) != d:
        bad.append(f"digest {d} differs from the first pass ({seen[op.name]})")
    for key, v in op_counts.items():
        counts[key] = counts.get(key, 0) + v
    return bad


def _layer_figures(summary: dict) -> dict[str, float]:
    """Time figures of one traced pass."""
    fig = {m: summary.get(s, {}).get("total", 0.0) for m, s in SPAN_SECONDS.items()}
    for layer, secs in layer_self_seconds(summary).items():
        fig[f"{layer}.self_s"] = secs
    for sub in CLI_SUBS:
        agg = summary.get(f"cli.{sub}")
        fig[f"cli.{sub}_ms"] = agg["total"] / agg["calls"] * 1e3 if agg else 0.0
    return fig


def _layers(figures, counts, cli_probe, scale) -> dict:
    """Per-layer metrics: medians over (scaled) traced passes, counts of one pass."""
    out = {name: (_median([f[name] for f in figures]), _unit(name)) for name in figures[0]}
    steps = counts.get("greedy_steps", 0)
    greedy_s = out["algorithms.greedy_extract_s"][0]
    exact_s = out["algorithms.exact_alpha_s"][0]
    nodes = counts.get("exact_nodes", 0)
    target = counts.get("edge_target", 0)
    out.update({
        "algorithms.greedy_steps": (steps, "count"),
        "algorithms.greedy_isolated_steps": (counts.get("greedy_isolated_steps", 0), "count"),
        "algorithms.greedy_slack": (counts.get("greedy_slack", 0), "count"),
        "algorithms.greedy_ms_per_step": (greedy_s * 1e3 / steps if steps else 0.0, "ms"),
        "algorithms.exact_nodes": (nodes, "count"),
        "algorithms.exact_nodes_per_s": (nodes / exact_s if exact_s else 0.0, "1/s"),
        "generators.edges": (counts.get("edges", 0), "count"),
        "generators.fill_ratio": (counts.get("edges", 0) / target if target else 0.0, "1"),
    })
    out.update(startup_probe(scale) if cli_probe else {
        "cli.interpreter_ms": (0.0, "ms"),
        "cli.import_hyperind_ms": (0.0, "ms"),
        "cli.import_numpy_ms": (0.0, "ms"),
    })
    return out


def _unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "s"


def startup_probe(scale: float, repeats: int = 3) -> dict:
    """Best of three, scaled: interpreter start, hyperind and numpy imports (-X importtime)."""
    bare, pkg, numpy = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hyperind"],
            capture_output=True, text=True, timeout=60, check=True,
            env=cli_env(ROOT),
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        pkg.append(cumulative.get("hyperind", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interpreter_ms": (min(bare) * scale, "ms"),
        "cli.import_hyperind_ms": (min(pkg) * scale, "ms"),
        "cli.import_numpy_ms": (min(numpy) * scale, "ms"),
    }


def _metric_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--size", size],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                return _fail(f"{workload} --trace {trace} exited {proc.returncode}")
            info, res = json.loads(lines[-2])["bench"], json.loads(lines[-1])
            attempted, failed = attempted + res["attempted"], failed + res["failed"]
            if trace == 0:
                print(f"{workload}: ops={info['ops']} passes={info['passes']} "
                      f"machine={json.dumps(info['machine'])}")
                print(f"  {workload:7s} {'fail_ratio':40s} {info['fail_ratio']:>14.6g} 1")
            for name, m in res["metrics"].items():
                print(f"  {workload:7s} {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"all: attempted={attempted} failed={failed} fail_ratio={failed / attempted:g}")
    return 0 if failed == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for checking the benchmark itself")
    args = p.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.size)
    try:
        hi, import_s = _import_hyperind()
    except ImportError as exc:
        return _fail(str(exc))
    info = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
    }
    expected = recorded_digests(args.workload, args.seed, args.size)
    if not expected:
        print(f"note: no digests recorded for {args.workload} seed {args.seed}; "
              "checking pass-to-pass agreement and independent checks only",
              file=sys.stderr)
    res = run_workload(hi, args.workload, args.seed, args.seconds, bool(args.trace),
                       args.size, expected)
    for line in res["problems"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    metrics = res["layers"] if args.trace else res["metrics"]
    if args.trace:
        path = os.path.join(ROOT, ".bench_build", f"trace-{args.workload}-seed{args.seed}.jsonl")
        res["spans"].write(path)
        print(f"spans written to {path}", file=sys.stderr)
    info.update(passes=res["passes"], ops=res["attempted"], import_s=import_s,
                fail_ratio=res["failed"] / res["attempted"],
                digests_recorded=bool(expected), scale=res["scale"],
                unscaled=res["unscaled"], samples=res["samples"],
                reference_ms=res["reference_ms"])
    print(json.dumps({"bench": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": _metric_json(metrics),
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
