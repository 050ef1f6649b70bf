"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single
``[ACCEPTANCE] criterion N PASS/FAIL`` line with the measured numbers
(run ``pytest -s tests/test_acceptance.py`` to see them all).  The
criteria, with their tolerances and runtime budgets:

1. exact convexity (decreasing differences) and the rational minorant of
   the recurrence weight, r in [2,10], d in [0,1000], < 10 s;
2. the recurrence weight strictly dominates the product weight for
   r in [3,10], d in [2,1000], with equality at d in {0,1}, < 10 s;
3. at r=2 the recurrence equals the exact graph recurrence for
   d <= 1000, and the closed-form graph bound never exceeds it by more
   than 1e-12;
4. both integral bounds match the closed graph form within 1e-8 at r=2
   on the anchor grid, and the log-Gamma Beta normalizer matches direct
   quadrature within 1e-8 for r in [2,6], m in [1,3];
5. the CLI bound tables for r=3 and r=4, d <= 40, are byte-identical to
   the frozen golden CSVs, each produced in < 5 s, with the strict
   dominance visible at every d in [2,40];
6. on 300 seeded instances every greedy certificate verifies, reaches
   ceil(guarantee) vertices (the guarantee is an exact fraction, so no
   tolerance), and never takes a negative step, all in < 60 s;
7. potential <= |greedy set| <= exact alpha on every corpus instance
   with n <= 20; exact alpha equals 2^n enumeration for n <= 16; the
   seven-point plane and loose_path(2,3) both have alpha 4;
8. triangle-freeness is equivalent to (double linearity and
   neighborhood max degree < 1) on every uniform linear corpus instance;
9. every CLI command is byte-deterministic, across repeated runs and
   across processes: each subcommand prints the same stdout in fresh
   processes under PYTHONHASHSEED in {0, 1, 4242} as in-process.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hyperind as hi
from hyperind.bounds import _beta
from hyperind.cli import main
from oracles import brute_beta, enumerate_alpha, shearer_s2_sequence

GOLDEN = Path(__file__).parent / "golden"


def _crit(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_convexity_and_minorant():
    t0 = time.perf_counter()
    bad = 0
    for r in range(2, 11):
        w = [hi.potential_weight(r, d) for d in range(1003)]
        for d in range(1001):
            a, b, c = w[d], w[d + 1], w[d + 2]
            # a - b >= b - c via integer cross-multiplication
            lhs = (a.numerator * c.denominator + c.numerator * a.denominator)
            if lhs * b.denominator < 2 * b.numerator * a.denominator * c.denominator:
                bad += 1
            lo = hi.convexity_minorant(r, d)
            if lo > a:
                bad += 1
    elapsed = time.perf_counter() - t0
    _crit(
        1,
        bad == 0 and elapsed < 10.0,
        f"decreasing differences and minorant hold exactly for r in [2,10], "
        f"d in [0,1000]; {bad} violations; {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_strict_dominance_over_product_weight():
    t0 = time.perf_counter()
    bad = 0
    for r in range(3, 11):
        w = [hi.potential_weight(r, d) for d in range(1001)]
        ct = [hi.caro_tuza(r, d) for d in range(1001)]
        if w[0] != ct[0] or w[0] != 1:
            bad += 1
        if w[1] != ct[1] or w[1] != Fraction(r - 1, r):
            bad += 1
        for d in range(2, 1001):
            if w[d].numerator * ct[d].denominator <= ct[d].numerator * w[d].denominator:
                bad += 1
    elapsed = time.perf_counter() - t0
    _crit(
        2,
        bad == 0 and elapsed < 10.0,
        f"recurrence weight > product weight for r in [3,10], d in [2,1000], "
        f"equal at d in {{0,1}}; {bad} violations; {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_3_graph_reduction():
    s2 = shearer_s2_sequence(1000)
    mismatches = sum(hi.potential_weight(2, d) != s2[d] for d in range(1001))
    worst = max(
        hi.shearer_s1(d) - float(hi.potential_weight(2, d)) for d in range(1001)
    )
    _crit(
        3,
        mismatches == 0 and worst <= 1e-12,
        f"r=2 recurrence == graph recurrence on d in [0,1000] "
        f"({mismatches} mismatches); closed form exceeds it by at most "
        f"{worst:.2e} (allowed 1e-12)",
    )


def test_criterion_4_quadrature_anchors_and_beta():
    anchors = [0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 40.0]
    worst_anchor = 0.0
    for x in anchors:
        s1 = hi.shearer_s1(x)
        worst_anchor = max(
            worst_anchor,
            abs(hi.li_zang(2, 1, x) - s1),
            abs(hi.chishti(2, x) - s1),
        )
    worst_beta = 0.0
    for r in range(2, 7):
        for m in range(1, 4):
            alpha = 1.0 / (r - 1)
            beta = 1.0 / (m * (r - 1) ** 2)
            worst_beta = max(
                worst_beta, abs(_beta(alpha, beta) - brute_beta(alpha, beta))
            )
    _crit(
        4,
        worst_anchor <= 1e-8 and worst_beta <= 1e-8,
        f"r=2 integral forms vs closed form: worst {worst_anchor:.2e} over "
        f"{len(anchors)} anchors (allowed 1e-8); Beta normalizer vs 1e6-panel "
        f"quadrature: worst {worst_beta:.2e} over r in [2,6], m in [1,3] "
        f"(allowed 1e-8)",
    )


def test_criterion_5_golden_tables(tmp_path):
    details = []
    ok = True
    for r in (3, 4):
        dest = tmp_path / f"r{r}.csv"
        t0 = time.perf_counter()
        code = main(["bounds-table", "--r", str(r), "--d-max", "40",
                     "-o", str(dest)])
        elapsed = time.perf_counter() - t0
        golden = (GOLDEN / f"bounds_r{r}_d40.csv").read_bytes()
        identical = code == 0 and dest.read_bytes() == golden
        dominance = all(
            hi.potential_weight(r, d) > hi.caro_tuza(r, d) for d in range(2, 41)
        )
        ok = ok and identical and dominance and elapsed < 5.0
        details.append(f"r={r}: bytes {'==' if identical else '!='} golden, "
                       f"{elapsed:.2f}s")
    _crit(5, ok, "; ".join(details) + " (budget 5s each, strict dominance "
                 "checked on d in [2,40])")


def _corpus_300():
    items = []
    for r in (2, 3, 4):
        for seed in range(70):
            n = 12 + 8 * (seed % 7)  # 12..60
            m = {2: n, 3: (2 * n) // 3, 4: n // 2}[r]
            h, _ = hi.random_linear_triangle_free(
                hi.InstanceSpec("random", n=n, r=r, m=m, seed=seed)
            )
            items.append((h, r))
        for k in range(1, 21):
            items.append((hi.loose_path(k, r), r))
        for k in range(1, 11):
            items.append((hi.matching(k, r), r))
    return items


def test_criterion_6_certificates_at_scale():
    t0 = time.perf_counter()
    corpus = _corpus_300()
    bad = 0
    for h, r in corpus:
        cert = hi.greedy_extract(h, r)
        ok, _ = hi.verify_independent(h, cert.independent_set)
        floor = math.ceil(cert.guarantee)
        if not ok or len(cert.independent_set) < floor:
            bad += 1
        if any(s.delta < 0 for s in cert.steps):
            bad += 1
    elapsed = time.perf_counter() - t0
    _crit(
        6,
        len(corpus) >= 200 and bad == 0 and elapsed < 60.0,
        f"{len(corpus)} seeded instances (r in {{2,3,4}}, n <= 60): all "
        f"certificates verified, floor reached, no negative step; {bad} "
        f"violations; {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_oracle_sandwich(small_corpus):
    checked = enumerated = 0
    bad = 0
    for label, h, r in small_corpus:
        cert = hi.greedy_extract(h, r)
        res = hi.exact_alpha(h)
        if not (res.exact and cert.guarantee <= len(cert.independent_set) <= res.alpha):
            bad += 1
        if h.n <= 16:
            enumerated += 1
            if res.alpha != enumerate_alpha(h):
                bad += 1
        checked += 1
    fano_ok = hi.exact_alpha(hi.fano()).alpha == 4 == enumerate_alpha(hi.fano())
    path_ok = hi.exact_alpha(hi.loose_path(2, 3)).alpha == 4
    _crit(
        7,
        bad == 0 and fano_ok and path_ok,
        f"potential <= greedy <= exact alpha on {checked} instances with "
        f"n <= 20; exact alpha == 2^n enumeration on {enumerated} of them "
        f"(n <= 16); {bad} violations; seven-point plane alpha=4: "
        f"{fano_ok}; loose_path(2,3) alpha=4: {path_ok}",
    )


def test_criterion_8_triangle_equivalence(linear_corpus):
    extra = []
    for r in (2, 3, 4):
        for seed in (100, 200):
            h, _ = hi.random_linear_triangle_free(
                hi.InstanceSpec("random", n=18, r=r, m=18 // r, seed=seed)
            )
            extra.append((f"random-eq-r{r}-s{seed}", h, r))
    bad = []
    total = 0
    for label, h, r in list(linear_corpus) + extra:
        assert hi.is_linear(h)[0] and hi.has_uniformity(h, r)
        lhs = hi.is_triangle_free(h)[0]
        rhs = hi.is_double_linear(h)[0] and hi.neighborhood_max_degree(h) < 1
        total += 1
        if lhs != rhs:
            bad.append(label)
    _crit(
        8,
        not bad,
        f"triangle-free == (double linear and nbhd degree < 1) on {total} "
        f"uniform linear instances (both truth values exercised); "
        f"mismatches: {bad or 'none'}",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    loose = tmp_path / "loose.hg"
    hi.write_hg(hi.loose_path(2, 3), str(loose))
    commands = [
        ["check", str(loose)],
        ["bounds-table", "--r", "3", "--d-max", "10"],
        ["extract", str(loose), "--r", "3"],
        ["exact", str(loose)],
        ["gen", "--family", "random", "--n", "14", "--r", "3", "--m", "7",
         "--seed", "3"],
        ["compare", str(loose), "--r", "3"],
    ]
    stable = 0
    in_process = []
    for argv in commands:
        outs = set()
        for _ in range(2):
            code = main(argv)
            outs.add((code, capsys.readouterr().out))
        if len(outs) == 1:
            stable += 1
        in_process.append(outs)
    # fresh processes under several hash seeds must print the same bytes
    hash_stable = 0
    for argv, outs in zip(commands, in_process):
        for hash_seed in ("0", "1", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperind", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            outs.add((proc.returncode, proc.stdout))
        if len(outs) == 1:
            hash_stable += 1
    # a fresh process in the inherited environment prints the same bytes
    main(["bounds-table", "--r", "4", "--d-max", "15"])
    base = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "hyperind", "bounds-table", "--r", "4",
         "--d-max", "15"],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )
    process_ok = proc.returncode == 0 and proc.stdout == base
    _crit(
        9,
        stable == len(commands) == hash_stable and process_ok,
        f"{stable}/{len(commands)} subcommands byte-identical across repeated "
        f"runs; {hash_stable}/{len(commands)} identical in fresh processes "
        f"under PYTHONHASHSEED in {{0,1,4242}}; fresh-process output "
        f"identical: {process_ok}",
    )
