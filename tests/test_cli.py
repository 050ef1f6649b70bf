"""CLI subcommands: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperind as hi
import shapes
from hyperind import cli, core
from hyperind.cli import _MAX_EXACT_VERTICES, main
from hyperind.errors import BadArgument, BadSpec, BadUniformity, NegativeDegree

LOOSE_TEXT = "5 2\n0 1 2\n2 3 4\n"


@pytest.fixture()
def loose_file(tmp_path):
    path = tmp_path / "loose.hg"
    path.write_bytes(LOOSE_TEXT.encode())
    return str(path)


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.hg"
    hi.write_hg(hi.fano(), str(path))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ------------------------------------------------------------------


def test_check_ok(loose_file, capsys):
    code, out, err = run(["check", loose_file], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["uniform_r"] == 3 and payload["witness"] is None


def test_check_fano_fails(fano_file, capsys):
    code, out, _ = run(["check", fano_file], capsys)
    assert code == 1
    assert json.loads(out)["triangle_free"] is False


def test_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("5 2\n0 1 2\n")
    code, out, err = run(["check", str(bad)], capsys)
    assert code == 2 and out == "" and err.startswith("error:")


def test_check_refuses_oversized_header(tmp_path, capsys):
    # a 13-byte file declaring 10^9 vertices is refused before any
    # per-vertex list is built
    huge = tmp_path / "huge.hg"
    huge.write_text("1000000000 0\n")
    code, out, err = run(["check", str(huge)], capsys)
    assert (code, out) == (2, "")
    assert "vertex count 1000000000 exceeds the cap 1000000" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # one edge of 3163 vertices: 3163 * 3162 neighbour entries
        ("3163 1\n" + " ".join(map(str, range(3163))) + "\n", "above the cap 10000000"),
        # a form feed is no line end, so this is one edge line of two declared
        ("3 2\n0 1\x0c2\n", "control character"),
        # nor is a bare CR, in a file as in text
        ("3 2\r0 1\r1 2\n", "control character"),
        # a refusal fires at the line that breaks the rule: the big edge
        # crosses the entry cap before the form feed's line is read
        ("3163 2\n" + " ".join(map(str, range(3163))) + "\n0 1\x0c2\n",
         "above the cap 10000000"),
    ],
    ids=["edge-over-entry-cap", "form-feed", "bare-cr", "first-breaking-line"],
)
def test_check_refuses_big_edges_and_control_characters(tmp_path, capsys, text, message):
    path = tmp_path / "hostile.hg"
    path.write_bytes(text.encode())
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out) == (2, "") and f"cannot parse {path}: " in err and message in err


@pytest.mark.parametrize("token", ["+2", "1_0", "\u0662"])
def test_check_refuses_numbers_outside_the_format(tmp_path, capsys, token):
    # int() would read each as a vertex id in range: 2, 10 and 2
    path = tmp_path / "odd.hg"
    path.write_text(f"11 1\n0 1 {token}\n", encoding="utf-8")
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out) == (2, "") and "cannot parse" in err


def test_check_comment_may_hold_any_bytes(tmp_path, capsys):
    path = tmp_path / "comment.hg"
    path.write_bytes(b"# \xff\n" + LOOSE_TEXT.encode())
    code, _, err = run(["check", str(path)], capsys)
    assert (code, err) == (0, "")


def test_check_missing_file(capsys):
    code, _, err = run(["check", "/nonexistent/x.hg"], capsys)
    assert code == 2 and "cannot read" in err


# --- bounds-table -----------------------------------------------------------


def test_bounds_table_csv(capsys):
    code, out, _ = run(["bounds-table", "--r", "3", "--d-max", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "d,f_LZ,f_CZPI,f_CT,f_r"
    assert out.splitlines()[2] == "1,0.333333,0.570796,0.666667,0.666667"


def test_bounds_table_json(capsys):
    code, out, _ = run(
        ["bounds-table", "--r", "3", "--d-max", "2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2]["f_r"] == "5/9"


def test_bounds_table_to_file_matches_stdout(tmp_path, capsys):
    dest = tmp_path / "t.csv"
    code, out, _ = run(
        ["bounds-table", "--r", "3", "--d-max", "5", "-o", str(dest)], capsys
    )
    assert code == 0 and out == ""
    code, out, _ = run(["bounds-table", "--r", "3", "--d-max", "5"], capsys)
    assert dest.read_bytes() == out.encode()


def test_bounds_table_bad_flags(capsys):
    assert run(["bounds-table", "--r", "1", "--d-max", "5"], capsys)[0] == 2
    assert run(["bounds-table", "--r", "3", "--d-max", "-1"], capsys)[0] == 2
    # the quadrature tolerance is fixed, so argparse rejects --tol
    with pytest.raises(SystemExit) as exc:
        main(["bounds-table", "--r", "3", "--d-max", "5", "--tol", "0"])
    assert exc.value.code == 2


def test_bounds_table_d_max_cap(capsys, monkeypatch):
    # the exact columns grow about 12 bits per degree, so an oversized
    # --d-max exits 2 before any table work starts
    import hyperind.bounds

    calls = []
    monkeypatch.setattr(
        hyperind.bounds, "bound_table", lambda r, d_max, m=1: calls.append(d_max) or []
    )
    code, out, err = run(["bounds-table", "--r", "3", "--d-max", "10001"], capsys)
    assert (code, out, calls) == (2, "", [])
    assert "--d-max must be at most 10000, got 10001" in err
    assert run(["bounds-table", "--r", "3", "--d-max", str(10**18)], capsys)[0] == 2
    code, out, _ = run(["bounds-table", "--r", "3", "--d-max", "10000"], capsys)
    assert (code, out, calls) == (0, "d,f_LZ,f_CZPI,f_CT,f_r\n", [10000])


@pytest.mark.parametrize("flag", ["--r", "--m"])
def test_bounds_table_flag_without_a_float_value(flag, capsys):
    flags = {"--r": "3", "--d-max": "1", "--m": "1"}
    flags[flag] = "1" + "0" * 400
    argv = ["bounds-table"] + [tok for item in flags.items() for tok in item]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "too large for a float" in err


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds-table", "--r", "3", "--d-max", "5", "--frobnicate"])
    assert exc.value.code == 2


def test_bounds_table_non_finite_tol(capsys, loose_file):
    for tol in ("nan", "inf", "-inf", "1e-9"):
        for argv in (
            ["bounds-table", "--r", "3", "--d-max", "2", "--format", "json"],
            ["compare", loose_file, "--r", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + [f"--tol={tol}"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "--tol" in err


# --- extract ----------------------------------------------------------------


def test_extract_loose_path(loose_file, capsys):
    code, out, _ = run(["extract", loose_file, "--r", "3"], capsys)
    assert code == 0
    assert out == (
        '{"independent_set": [0, 1, 3, 4], "guarantee": "29/9", '
        '"steps": [{"x": 0, "R": [2], "delta": "7/9"}, '
        '{"x": 1, "R": [], "delta": "0/1"}, '
        '{"x": 3, "R": [], "delta": "0/1"}, '
        '{"x": 4, "R": [], "delta": "0/1"}], "guaranteed": true}\n'
    )


def test_extract_refuses_fano(fano_file, capsys):
    code, out, err = run(["extract", fano_file, "--r", "3"], capsys)
    assert code == 1 and out == "" and "triangle" in err


def test_extract_unsafe_runs_but_unguaranteed(fano_file, capsys):
    code, out, _ = run(["extract", fano_file, "--r", "3", "--unsafe"], capsys)
    assert code == 1  # unguaranteed counts as a semantic negative
    payload = json.loads(out)
    assert payload["guaranteed"] is False
    ok, _ = hi.verify_independent(hi.fano(), payload["independent_set"])
    assert ok


# --- exact ------------------------------------------------------------------


def test_exact_loose_path(loose_file, capsys):
    code, out, _ = run(["exact", loose_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 4 and payload["exact"] is True
    assert payload["nodes"] >= 1


def test_exact_budget_flags_inexact(fano_file, capsys):
    code, out, _ = run(["exact", fano_file, "--budget", "1"], capsys)
    assert code == 1
    assert json.loads(out)["exact"] is False


def test_exact_negative_budget_is_usage_error(fano_file, capsys):
    code, out, err = run(["exact", fano_file, "--budget", "-1"], capsys)
    assert code == 2 and out == "" and "budget" in err


def test_exact_and_compare_refuse_more_vertices_than_the_cap(tmp_path, capsys):
    # exact search's masks are ints as wide as n, so an n = 10^5 file
    # with --budget 1 would need gigabytes; header-only files bracket the cap
    cap = _MAX_EXACT_VERTICES
    at_cap, over = tmp_path / "cap.hg", tmp_path / "over.hg"
    at_cap.write_text(f"{cap} 0\n")
    over.write_text(f"{cap + 1} 0\n")
    refusal = f"exact search takes at most {cap} vertices, got {cap + 1}"
    compare = ["compare", str(over), "--r", "3", "--budget", "1"]
    for argv in (["exact", str(over)], compare):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "") and refusal in err
    code, out, _ = run(["exact", str(at_cap), "--budget", "0"], capsys)
    assert code == 1 and json.loads(out)["exact"] is False
    # without --budget, compare skips exact search above n = 60
    code, out, _ = run(["compare", str(over), "--r", "3"], capsys)
    assert code == 0 and out.endswith(" exact=n/a\n")


# --- gen --------------------------------------------------------------------


def test_gen_stdout_named(capsys):
    code, out, _ = run(
        ["gen", "--family", "loose_path", "--r", "3", "--m", "2"], capsys
    )
    assert code == 0 and out == LOOSE_TEXT


def test_gen_fano_byte_stable(capsys):
    a = run(["gen", "--family", "fano"], capsys)
    b = run(["gen", "--family", "fano"], capsys)
    assert a == b and a[0] == 0
    assert hi.parse_hg(a[1]) == hi.fano()


def test_gen_random_file_and_sidecar(tmp_path, capsys):
    dest = tmp_path / "inst.hg"
    argv = [
        "gen", "--family", "random", "--n", "12", "--r", "3",
        "--m", "6", "--seed", "5", "-o", str(dest),
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0 and out == ""
    h = hi.read_hg(str(dest))
    assert hi.property_report(h).hypotheses_hold()
    assert h.m == 6
    assert (tmp_path / "inst.hg.json").read_bytes() == (
        b'{"spec": {"family": "random", "n": 12, "r": 3, "m": 6, "seed": 5}, '
        b'"n": 12, "m": 6, "complete": true}\n'
    )
    first = dest.read_bytes()
    run(argv, capsys)
    assert dest.read_bytes() == first  # determinism across runs


def test_gen_underfill_warns(tmp_path, capsys):
    dest = tmp_path / "short.hg"
    code, _, err = run(
        ["gen", "--family", "random", "--n", "4", "--r", "3", "--m", "3",
         "-o", str(dest)],
        capsys,
    )
    assert code == 1 and "warning" in err
    assert json.loads((tmp_path / "short.hg.json").read_text())["complete"] is False


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x.hg")
    code, out, err = run(
        ["gen", "--family", "loose_path", "--r", "3", "--m", "2", "-o", missing],
        capsys,
    )
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    code, _, err = run(
        ["bounds-table", "--r", "3", "--d-max", "2", "-o", missing], capsys
    )
    assert code == 2 and err.startswith("error: cannot write")


def test_unwritable_sidecar_is_usage_error(tmp_path, capsys):
    dest = tmp_path / "inst.hg"
    (tmp_path / "inst.hg.json").mkdir()  # the sidecar path is a directory
    code, _, err = run(
        ["gen", "--family", "loose_path", "--r", "3", "--m", "2", "-o", str(dest)],
        capsys,
    )
    assert code == 2 and err.startswith("error: cannot write")
    assert hi.read_hg(str(dest)) == hi.loose_path(2, 3)


def test_gen_family_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "steiner"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "{" + ",".join(hi.FAMILIES) + "}" in err


def test_gen_bad_spec(tmp_path, capsys):
    dest = tmp_path / "bad.hg"
    for argv in (
        ["--family", "random", "--n", "2", "--r", "3", "--m", "1"],
        # instances whose .hg text check would refuse, refused before any
        # per-vertex set is built: n = 10^6 + 1 and 1.2 * 10^6 vertices,
        # and 1.9 * 10^7 neighbour entries on 950,001 vertices
        ["--family", "random", "--n", "1000001", "--r", "2", "--m", "0"],
        ["--family", "matching", "--m", "400000", "--r", "3"],
        ["--family", "loose_path", "--m", "50000", "--r", "20"],
    ):
        code, out, err = run(["gen", *argv, "-o", str(dest)], capsys)
        assert code == 2 and out == "" and "error:" in err, argv
        assert not dest.exists()


def test_gen_beyond_64_bit_candidate_space_is_usage_error(tmp_path, capsys):
    dest = tmp_path / "big.hg"
    code, out, err = run(
        ["gen", "--family", "random", "--n", "100000", "--r", "5", "--m", "2000",
         "-o", str(dest)],
        capsys,
    )
    assert code == 2 and out == "" and "2^64" in err
    assert not dest.exists()


# --- compare ----------------------------------------------------------------


def test_compare_loose_path(loose_file, capsys):
    code, out, _ = run(["compare", loose_file, "--r", "3"], capsys)
    assert code == 0
    assert out == (
        "n=5 m=2 potential=29/9 potential_float=3.222222 "
        "caro_tuza=16/5 caro_tuza_float=3.200000 chishti=2.724649 "
        "greedy=4 exact=4\n"
    )


def test_compare_rejects_fano(fano_file, capsys):
    assert run(["compare", fano_file, "--r", "3"], capsys)[0] == 1


def test_compare_budget_marks_lower_bound(tmp_path, capsys):
    # the unit and leaf rules solve a loose path at the root, so this
    # runs a loose 5-cycle, whose search needs three nodes
    path = tmp_path / "cycle.hg"
    hi.write_hg(hi.loose_cycle(5, 3), str(path))
    _, out, _ = run(["compare", str(path), "--r", "3", "--budget", "1"], capsys)
    assert "exact=>=" in out


def test_compare_negative_budget_is_usage_error(loose_file, capsys):
    code, out, err = run(["compare", loose_file, "--r", "3", "--budget", "-3"], capsys)
    assert code == 2 and out == "" and "budget" in err


def test_compare_large_instance_skips_exact(tmp_path, capsys):
    dest = tmp_path / "big.hg"
    run(
        ["gen", "--family", "random", "--n", "61", "--r", "3", "--m", "30",
         "--seed", "2", "-o", str(dest)],
        capsys,
    )
    _, out, _ = run(["compare", str(dest), "--r", "3"], capsys)
    assert "exact=n/a" in out


@pytest.mark.parametrize("n", [31, 60])
def test_compare_solves_up_to_n60(tmp_path, capsys, n):
    dest = tmp_path / "mid.hg"
    run(
        ["gen", "--family", "random", "--n", str(n), "--r", "3", "--m", str(n),
         "--seed", "0", "-o", str(dest)],
        capsys,
    )
    code, out, _ = run(["compare", str(dest), "--r", "3"], capsys)
    assert code == 0
    assert out.endswith(f" exact={hi.exact_alpha(hi.read_hg(str(dest))).alpha}\n")


def test_compare_zero_vertices(tmp_path, capsys):
    path = tmp_path / "empty.hg"
    path.write_bytes(b"0 0\n")
    code, out, err = run(["compare", str(path), "--r", "3"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        "n=0 m=0 potential=0/1 potential_float=0.000000 "
        "caro_tuza=0/1 caro_tuza_float=0.000000 chishti=n/a "
        "greedy=0 exact=0\n"
    )


# --- exit codes and caps ---------------------------------------------------

BIG = "1" + "0" * 400
TABLE_REFUSALS = [
    (["--m", "0"], "m must be an integer >= 1, got 0"),
    (["--m", BIG], "m is too large for a float"),
    (["--r", BIG], "(r-1)^2 m is too large for a float"),
    (["--r", "1"], "uniformity must be an integer >= 2, got 1"),
    (["--d-max", "-1"], "degree must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "{in}", "--budget", "-1"], "budget must be non-negative, got -1"),
        (["compare", "{in}", "--r", "3", "--budget", "-1"], "budget must be non-negative, got -1"),
        (["extract", "{in}", "--r", "1"], "uniformity must be an integer >= 2, got 1"),
    ]
    + [
        (["bounds-table", "--r", "3", "--d-max", "2", *flags, *fmt], message)
        for flags, message in TABLE_REFUSALS
        for fmt in ([], ["--format", "json"])
    ],
)
def test_refused_flags_exit_2_with_their_messages(argv, message, loose_file, capsys):
    # every refusal is a BadArgument, and its message is unchanged
    argv = [a.format_map({"in": loose_file}) for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_refusal_classes_are_value_errors():
    assert issubclass(BadArgument, (hi.errors.HyperindError, ValueError))
    for cls in (BadSpec, BadUniformity, NegativeDegree):
        assert issubclass(cls, BadArgument)
    with pytest.raises(ValueError, match="budget"):
        hi.exact_alpha(hi.loose_path(2, 3), budget=-1)


def test_internal_value_error_exits_1_with_a_traceback(loose_file):
    # only BadArgument exits 2: a ValueError from a bug escapes main
    script = (
        "import sys, hyperind.properties as p\n"
        "def boom(h): raise ValueError('internal')\n"
        "p.property_report = boom\n"
        "from hyperind.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, "check", loose_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" in proc.stderr and "ValueError: internal" in proc.stderr


def _shape_file(tmp_path, name, k):
    path = tmp_path / f"{name}.hg"
    path.write_bytes(shapes.hg(name, k))
    return str(path)


@pytest.mark.parametrize("name, k, r", [("star", 1200, 2), ("sunflower", 1211, 3)])
@pytest.mark.parametrize("command", ["extract", "compare"])
def test_hub_past_the_width_cap_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, name, k, r, command
):
    # the weights' common denominator first passes 4,000 digits at these
    # degrees; the lcm stops there, and the greedy never starts
    import hyperind.algorithms

    calls = []
    monkeypatch.setattr(hyperind.algorithms, "greedy_extract", lambda *a, **k: calls.append(a))
    path = _shape_file(tmp_path, name, k)
    code, out, err = run([command, path, "--r", str(r)], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: vertex 0 has degree {k}: exact weights pass 4000 digits at degree {k}\n"


def test_widest_admitted_star_is_certified(tmp_path, capsys):
    path = _shape_file(tmp_path, "star", 1199)
    code, out, _ = run(["extract", path, "--r", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    p, q = map(int, payload["guarantee"].split("/"))
    assert len(payload["independent_set"]) >= -(-p // q)
    assert hi.verify_independent(hi.read_hg(path), payload["independent_set"]) == (True, None)


def test_width_cap_brackets():
    # the lcm of the weights' denominators at degrees 0..d
    bound = 10**cli._MAX_DIGITS
    for r, first in ((2, 1200), (3, 1211), (100, 824), (10**6, 493)):
        assert cli._too_wide(r, first - 1, hi.potential_weight) is None
        assert cli._too_wide(r, 10**4, hi.potential_weight) == first
        scale = math.lcm(*(hi.potential_weight(r, d).denominator for d in range(first)))
        assert scale < bound <= math.lcm(scale, hi.potential_weight(r, first).denominator)


def test_json_table_past_the_width_cap_is_refused_before_any_work(capsys, monkeypatch):
    import hyperind.bounds

    calls = []
    monkeypatch.setattr(
        hyperind.bounds, "bound_table", lambda r, d_max, m=1: calls.append(d_max) or []
    )
    argv = ["bounds-table", "--r", "3", "--d-max", "10000", "--format", "json"]
    code, out, err = run(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --format json: exact values pass 4000 digits at degree 1211, got --d-max 10000\n"
    # CSV prints floats, so it takes the degree cap only
    code, _, _ = run(argv[:-2], capsys)
    assert (code, calls) == (0, [10000])


def test_unsafe_extract_builds_no_slot_an_edge_cannot_fill(tmp_path, capsys):
    from hyperind.algorithms import _Residual

    h = hi.Hypergraph(4, [(0, 1), (1, 2), (1, 2, 3)])
    res = _Residual(h, 10**6)
    assert [len(res.slots(v)) for v in range(4)] == [1, 2, 2, 2]
    path = tmp_path / "path.hg"
    path.write_bytes(b"3 2\n0 1\n1 2\n")
    code, out, _ = run(["extract", str(path), "--r", "1000000", "--unsafe"], capsys)
    assert code == 1 and json.loads(out)["guaranteed"] is False


def test_readme_cap_table_lists_every_cap_with_its_value():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(core|cli)\.(_MAX_\w+)` \| ([^|]+) \|.*\| 2 \|$", readme, re.M)
    listed = {}
    for module, name, value in rows:
        listed[name] = value
        value = value.strip().replace(",", "").replace("^", "**")
        assert eval(value, {}) == getattr({"core": core, "cli": cli}[module], name), name
    caps = {n for m in (core, cli) for n in vars(m) if n.startswith("_MAX_")}
    assert set(listed) == caps


# --- whole-process invocation ----------------------------------------------


def test_module_entry_point_matches_in_process(capsys):
    argv = ["bounds-table", "--r", "3", "--d-max", "3"]
    _, expected, _ = run(argv, capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperind", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


# argv after the subcommand ({in}: a loose-path .hg file, {out}: an output
# path), and the hyperind modules that process must not load
SUBCOMMAND_IMPORTS = {
    "import-cli": ((), ("hyperind.generators", "fractions", "decimal")),
    "gen": (
        ("gen", "--family", "loose_path", "--r", "3", "--m", "3", "-o", "{out}"),
        ("fractions", "decimal"),
    ),
    "check": (
        ("check", "{in}", "-o", "{out}"),
        ("hyperind.bounds", "hyperind.algorithms", "hyperind.generators",
         "fractions", "decimal"),
    ),
    "extract": (
        ("extract", "{in}", "--r", "3", "-o", "{out}"),
        ("hyperind.generators",),
    ),
    "exact": (
        ("exact", "{in}", "-o", "{out}"),
        ("hyperind.bounds", "hyperind.properties", "hyperind.generators"),
    ),
    "bounds-table": (
        ("bounds-table", "--r", "3", "--d-max", "3", "-o", "{out}"),
        ("hyperind.properties", "hyperind.algorithms", "hyperind.generators"),
    ),
    "compare": (
        ("compare", "{in}", "--r", "3", "-o", "{out}"),
        ("hyperind.generators",),
    ),
}

# runs main on argv (none: only imports the CLI), then prints the
# hyperind, dataclasses, numpy, fractions and decimal entries of sys.modules
IMPORT_PROBE = """
import sys
import hyperind.cli
code = hyperind.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(*sorted(m for m in sys.modules if m.partition(".")[0] in
              ("hyperind", "dataclasses", "numpy", "fractions", "decimal")))
sys.exit(code)
"""


@pytest.mark.parametrize("case", SUBCOMMAND_IMPORTS)
def test_process_imports(case, loose_file, tmp_path):
    template, forbidden = SUBCOMMAND_IMPORTS[case]
    out = str(tmp_path / "out")
    argv = [a.format_map({"in": loose_file, "out": out}) for a in template]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hyperind.cli" in loaded
    assert not loaded & {"dataclasses", "numpy", *forbidden}, sorted(loaded)
    if argv:
        assert Path(out).stat().st_size > 0
