"""CLI subcommands: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperind as hi
from hyperind.cli import main

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
    assert run(["bounds-table", "--r", "3", "--d-max", "5", "--tol", "0"], capsys)[0] == 2


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds-table", "--r", "3", "--d-max", "5", "--frobnicate"])
    assert exc.value.code == 2


def test_bounds_table_non_finite_tol(capsys):
    for tol in ("nan", "inf", "-inf"):
        argv = ["bounds-table", "--r", "3", "--d-max", "2", f"--tol={tol}",
                "--format", "json"]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "tol" in err


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
    side = json.loads((tmp_path / "inst.hg.json").read_text())
    assert side["spec"] == {"family": "random", "n": 12, "r": 3, "m": 6, "seed": 5}
    assert side["complete"] is True and side["m"] == h.m and side["n"] == 12
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


def test_gen_bad_spec(capsys):
    code, _, err = run(
        ["gen", "--family", "random", "--n", "2", "--r", "3", "--m", "1"], capsys
    )
    assert code == 2 and "error:" in err


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


def test_compare_budget_marks_lower_bound(loose_file, capsys):
    _, out, _ = run(["compare", loose_file, "--r", "3", "--budget", "1"], capsys)
    assert "exact=>=" in out


def test_compare_negative_budget_is_usage_error(loose_file, capsys):
    code, out, err = run(["compare", loose_file, "--r", "3", "--budget", "-3"], capsys)
    assert code == 2 and out == "" and "budget" in err


def test_compare_large_instance_skips_exact(tmp_path, capsys):
    dest = tmp_path / "big.hg"
    run(
        ["gen", "--family", "random", "--n", "40", "--r", "3", "--m", "20",
         "--seed", "2", "-o", str(dest)],
        capsys,
    )
    _, out, _ = run(["compare", str(dest), "--r", "3"], capsys)
    assert "exact=n/a" in out


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
    "import-cli": ((), ("hyperind.generators",)),
    "gen": (("gen", "--family", "loose_path", "--r", "3", "--m", "3", "-o", "{out}"), ()),
    "check": (
        ("check", "{in}", "-o", "{out}"),
        ("hyperind.bounds", "hyperind.algorithms", "hyperind.generators"),
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
# hyperind, dataclasses and numpy entries of sys.modules
IMPORT_PROBE = """
import sys
import hyperind.cli
code = hyperind.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(*sorted(m for m in sys.modules
              if m.partition(".")[0] in ("hyperind", "dataclasses", "numpy")))
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
