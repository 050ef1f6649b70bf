"""Hostile-input guards of the hyperind command line.

    python tests/guards.py

Each row of GUARDS writes one input file, built from a shape in shapes.py
at a given size or given as literal bytes, runs one ``python -m
hyperind`` command on it in a fresh directory, and checks:
  - that the command exits within the row's timeout, with the row's code;
  - on exit 2, a refusal, that stdout is empty and no file was written;
  - that each expected text is in stdout, or in stderr on exit 2.
Every row prints its exit code, wall time and peak RSS, whether it
passes or not, and the run exits 1 if any row fails.  A new cap or
hostile shape is one more row.  The peak RSS is the kernel's count for
the command, which on Linux starts from this runner's own peak, about
18 MiB with CPython 3.11, so smaller peaks read as that.

The commands import whatever hyperind the interpreter finds, so point
PYTHONPATH at a source tree to test that tree.  Standard library only:
it runs where hyperind is installed without extras.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional, Union

SHAPES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shapes.py")


class Guard(NamedTuple):
    """One command on one input, and what it must do."""

    name: str  # the input file's name, which argv uses
    data: Union[bytes, tuple[str, int], None]  # file bytes, (shape, size), or no file
    argv: tuple[str, ...]  # after python -m hyperind
    code: int
    timeout: float = 60.0
    text: tuple[str, ...] = ()


FANO = b"7 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
TRI = '"witness": {"triangle": {"vertices": '

GUARDS = (
    # refused flags
    Guard("dmax", None, ("bounds-table", "--r", "3", "--d-max", "10001"), 2),
    Guard(
        "bigm",
        None,
        ("bounds-table", "--r", "3", "--d-max", "1", "--m", str(10**400)),
        2,
        text=("error:",),
    ),
    # refused while parsing, or read
    Guard("huge.hg", b"1000000000 0\n", ("check", "huge.hg"), 2, 10),
    Guard("many.hg", b"2 1\n" + b"0\n" * 10**6, ("check", "many.hg"), 2, 10),
    Guard("cr.hg", b"3 2\r0 1\r1 2\n", ("check", "cr.hg"), 2, text=("cannot parse",)),
    Guard("comment.hg", b"# \377\n5 2\n0 1 2\n2 3 4\n", ("check", "comment.hg"), 0),
    Guard("edge3162.hg", ("big_edge", 3162), ("check", "edge3162.hg"), 0, 20),
    Guard("edge3163.hg", ("big_edge", 3163), ("check", "edge3163.hg"), 2, 10),
    # predicates on shapes that could cost the square or cube of their size
    Guard(
        "pendants.hg",
        ("pendants", 2000),
        ("check", "pendants.hg"),
        1,
        20,
        ('"triangle_free": true',),
    ),
    Guard(
        "edgetri.hg",
        ("edge_triangle", 1000),
        ("check", "edgetri.hg"),
        1,
        20,
        (TRI + '[1000, 1001, 1002], "edges": [3, 2, 1]}}',),
    ),
    Guard(
        "pendtri.hg",
        ("pendants_triangle", 2000),
        ("check", "pendtri.hg"),
        1,
        20,
        (TRI + '[4000, 4001, 4002], "edges": [2003, 2002, 2001]}}',),
    ),
    Guard("shared1e5.hg", ("shared_pair", 100000), ("check", "shared1e5.hg"), 1, 30),
    Guard(
        "seppair.hg",
        ("separate_pair", 3000),
        ("check", "seppair.hg"),
        1,
        20,
        (
            '"triangle_free": true',
            '"linear": {"edges": [3001, 3002], "shared": [6000, 6001]}',
        ),
    ),
    Guard(
        "pairtri.hg",
        ("pair_triangle", 3000),
        ("check", "pairtri.hg"),
        1,
        20,
        ('"triangle": {"vertices": [6001, 6002, 6003], "edges": [3004, 3003, 3002]}',),
    ),
    Guard(
        "starpair.hg",
        ("star_pair", 100000),
        ("check", "starpair.hg"),
        1,
        20,
        ('"linear": {"edges": [100000, 100001], "shared": [100001, 100002]}',),
    ),
    # exact search's vertex cap
    Guard("wide.hg", b"10001 0\n", ("exact", "wide.hg"), 2, 10),
    Guard("wide.hg", b"10001 0\n", ("compare", "wide.hg", "--r", "3", "--budget", "1"), 2, 10),
    # gen refuses what check would refuse, and writes no file
    Guard(
        "bigspec",
        None,
        ("gen", "--family", "random", "--n", "1000001", "--r", "2", "--m", "0", "-o", "big.hg"),
        2,
        10,
    ),
    Guard("bigspec", None, ("gen", "--family", "matching", "--m", "400000", "--r", "3"), 2, 10),
    # the failure witnesses that generated instances never reach
    Guard(
        "fano.hg",
        FANO,
        ("check", "fano.hg"),
        1,
        text=(TRI + '[0, 1, 3], "edges": [3, 1, 0]}}',),
    ),
    Guard(
        "pair.hg",
        b"4 2\n0 1 2\n0 1 3\n",
        ("check", "pair.hg"),
        1,
        text=('"witness": {"linear": {"edges": [0, 1], "shared": [0, 1]}}',),
    ),
    # the width cap on printed exact values, bracketed
    Guard("table", None, ("bounds-table", "--r", "3", "--d-max", "1210", "--format", "json"), 0),
    Guard(
        "table",
        None,
        ("bounds-table", "--r", "3", "--d-max", "1379", "--format", "json"),
        2,
        text=("exact values pass 4000 digits at degree 1211",),
    ),
    Guard("star.hg", ("star", 1199), ("extract", "star.hg", "--r", "2"), 0, 20),
    Guard(
        "star.hg",
        ("star", 1200),
        ("compare", "star.hg", "--r", "2"),
        2,
        10,
        ("vertex 0 has degree 1200",),
    ),
    Guard(
        "star.hg",
        ("star", 2000),
        ("extract", "star.hg", "--r", "2"),
        2,
        10,
        ("vertex 0 has degree 2000",),
    ),
    Guard("sunflower.hg", ("sunflower", 1210), ("extract", "sunflower.hg", "--r", "3"), 0, 20),
    Guard(
        "sunflower.hg",
        ("sunflower", 1211),
        ("extract", "sunflower.hg", "--r", "3"),
        2,
        10,
        ("vertex 0 has degree 1211",),
    ),
    # extract --unsafe builds no slot that an edge cannot fill, however large r
    Guard(
        "path.hg",
        b"3 2\n0 1\n1 2\n",
        ("extract", "path.hg", "--r", "1000000", "--unsafe"),
        1,
        5,
        ('"guaranteed": false',),
    ),
)


class Outcome(NamedTuple):
    failures: list[str]
    code: Optional[int]  # None when the command ran out of time
    wall_s: float
    peak_mib: float


def _env() -> dict[str, str]:
    """This process's environment, with PYTHONPATH made absolute, since
    each command runs in a directory of its own."""
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        paths = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths)
    return env


def run(guard: Guard) -> Outcome:
    """Run one guard in a fresh directory and check what it did."""
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as out, \
            tempfile.TemporaryFile() as err:
        if guard.data is not None:
            with open(os.path.join(cwd, guard.name), "wb") as fh:
                if isinstance(guard.data, bytes):
                    fh.write(guard.data)
                else:  # in a child, so that this process stays small
                    shape = [sys.executable, SHAPES, *map(str, guard.data)]
                    subprocess.run(shape, stdout=fh, check=True)
        before = set(os.listdir(cwd))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperind", *guard.argv],
            cwd=cwd,
            stdout=out,
            stderr=err,
            env=_env(),
        )
        # wait4 gives the command's peak RSS, which Linux counts from this
        # process's own peak at the spawn, about 18 MiB with CPython 3.11
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        while not pid and time.perf_counter() - start < guard.timeout:
            time.sleep(0.01)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if pid else None

        failures = []
        if code is None:
            failures.append(f"no exit within {guard.timeout:g} s")
        elif code != guard.code:
            failures.append(f"exit {code}, expected {guard.code}")
        if guard.code == 2:
            if os.fstat(out.fileno()).st_size:
                failures.append("a refusal printed to stdout")
            written = sorted(set(os.listdir(cwd)) - before)
            if written:
                failures.append(f"a refusal wrote {written}")
        if guard.text:  # read only then, as a table can be megabytes
            stream, where = (err, "stderr") if guard.code == 2 else (out, "stdout")
            found = _read(stream)
            failures += [f"{t!r} not in {where}" for t in guard.text if t not in found]
        if failures:
            failures.append("stderr ends: " + _read(err)[-300:].strip())
    return Outcome(failures, code, wall, usage.ru_maxrss / 1024)


def _read(fh) -> str:
    fh.seek(0)
    return fh.read().decode(errors="replace")


def label(guard: Guard) -> str:
    """The guard's input and command, with long arguments cut short."""
    args = [a if len(a) <= 20 else f"<{len(a)} chars>" for a in guard.argv]
    if isinstance(guard.data, tuple):
        shape = f"{guard.data[0]} {guard.data[1]}"
        args = [f"{a} ({shape})" if a == guard.name else a for a in args]
    return " ".join(args)


def main() -> int:
    failed = 0
    print(f"{'':4} {'exit':>4} {'wall s':>7} {'peak MiB':>8}  python -m hyperind ...")
    for guard in GUARDS:
        res = run(guard)
        code = "-" if res.code is None else res.code
        status = "FAIL" if res.failures else "ok"
        print(f"{status:4} {code:>4} {res.wall_s:7.2f} {res.peak_mib:8.1f}  {label(guard)}")
        for failure in res.failures:
            print(f"{'':6}{failure}")
        sys.stdout.flush()
        failed += bool(res.failures)
    print(f"{len(GUARDS) - failed} of {len(GUARDS)} guards pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
