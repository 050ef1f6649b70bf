"""Checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/check
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

COUNTS = (
    "algorithms.exact_nodes",
    "algorithms.greedy_steps",
    "algorithms.greedy_slack",
    "generators.edges",
)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    res = json.loads(last)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    bench = json.loads(info)["bench"]
    assert bench["fail_ratio"] == 0 and bench["ops"] == res["attempted"]
    assert {"nproc", "cpu_model", "python", "numpy", "loadavg", "seed"} <= set(bench["machine"])


def test_counts_repeat_exactly():
    for workload in ("greedy", "exact", "survey"):
        a, b = (json.loads(_run(workload, 1).stdout.splitlines()[-1]) for _ in range(2))
        for name in COUNTS:
            assert a["metrics"][name] == b["metrics"][name], (workload, name)


def test_corrupted_digest_counts_as_failed():
    hi, _ = run._import_hyperind()
    clean = run.run_workload(hi, "greedy", 3, 0, False, "tiny", setups=1)
    assert clean["failed"] == 0 and clean["digests"]
    expected = dict(clean["digests"])
    name = sorted(expected)[0]
    expected[name] = "0" * 16
    res = run.run_workload(hi, "greedy", 3, 0, False, "tiny", expected, setups=1)
    assert res["failed"] == 1
    assert any(p.startswith(f"{name}: digest") for p in res["problems"])


def test_samples_scaled_by_the_reference_around_them():
    ref = speed.Speed()
    # two reference samples before the op, two after; the op took 1 s
    ref.wall, ref.cpu = [0.02, 0.03, 0.01, 0.04], [0.02, 0.02, 0.02, 0.02]
    (wall, cpu), = run._scaled({"op": [(1.0, 0.5, 0)]}, ref)["op"]
    assert wall == pytest.approx(speed.REF_SECONDS / 0.025)
    assert cpu == pytest.approx(0.5 * speed.REF_SECONDS / 0.02)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("greedy", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
