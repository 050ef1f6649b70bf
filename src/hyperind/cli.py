"""Command-line interface.

Subcommands: check, bounds-table, extract, exact, gen, compare.  Exit
codes: 0 success; 1 a negative answer (predicate fails, certificate not
guaranteed, inexact search, underfilled generation) or an internal
error, which prints a traceback; 2 a refused input, flag or output path,
raised as BadArgument, with nothing on stdout.  Output is
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .core import FAMILIES, format_hg, read_hg
from .errors import (
    BadArgument,
    EmptyEdge,
    HgFormatError,
    HyperindError,
    InvalidVertex,
)

__all__ = ["main"]

_DEFAULT_EXACT_BUDGET = 10**6
# largest bounds-table --d-max: the exact f_CT and f_r values grow by
# about 12 bits per degree, so a table's time and memory grow
# quadratically in d_max (a 10,000 CSV table takes about 2.3 s and 210 MB)
_MAX_TABLE_DEGREE = 10_000
# largest n exact search takes: it keeps an int up to n bits wide per edge
# and per vertex, so memory grows quadratically (+31 MB at n = m = 10,000)
_MAX_EXACT_VERTICES = 10_000
# widest common denominator of the exact values a command prints, in
# decimal digits: under CPython's default int-to-str limit of 4,300, and
# fixed here so that no interpreter setting changes what is printed
_MAX_DIGITS = 4_000


def _too_wide(r: int, top: int, weight) -> Optional[int]:
    """The first degree d <= top at which the lcm of the denominators of
    weight(r, 0..d) passes _MAX_DIGITS digits, or None.  The lcm stops
    there, so a refusal costs no more than an admitted run."""
    bound = 10**_MAX_DIGITS
    scale = 1
    for d in range(top + 1):
        scale = math.lcm(scale, weight(r, d).denominator)
        if scale >= bound:
            return d
    return None


def _check_hub(h, r: int) -> None:
    """Refuse h when L, the scale of the weights up to its maximum degree
    and so the denominator of every exact value extract prints, is too
    wide."""
    from .bounds import potential_weight

    hub = max(range(h.n), key=h.degree, default=None)
    top = 0 if hub is None else h.degree(hub)
    d = _too_wide(r, top, potential_weight)
    if d is not None:
        raise BadArgument(
            f"vertex {hub} has degree {top}: "
            f"exact weights pass {_MAX_DIGITS} digits at degree {d}"
        )


def _load(path: str, exact: bool = False):
    try:
        h = read_hg(path)
    except (HgFormatError, InvalidVertex, EmptyEdge) as exc:
        raise BadArgument(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise BadArgument(f"cannot read {path}: {exc}") from exc
    if exact and h.n > _MAX_EXACT_VERTICES:
        cap = _MAX_EXACT_VERTICES
        raise BadArgument(f"exact search takes at most {cap} vertices, got {h.n}")
    return h


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadArgument(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        _write(output, text)


def cmd_check(args: argparse.Namespace) -> int:
    from .properties import property_report

    report = property_report(_load(args.file))
    _emit(report.to_json() + "\n", args.output)
    return 0 if report.hypotheses_hold() else 1


def cmd_bounds_table(args: argparse.Namespace) -> int:
    if args.d_max > _MAX_TABLE_DEGREE:
        raise BadArgument(f"--d-max must be at most {_MAX_TABLE_DEGREE}, got {args.d_max}")
    from .bounds import (
        bound_table,
        caro_tuza,
        potential_weight,
        table_to_csv,
        table_to_json,
    )

    if args.format == "json":
        for weight in (potential_weight, caro_tuza):
            d = _too_wide(args.r, args.d_max, weight)
            if d is not None:
                raise BadArgument(
                    f"--format json: exact values pass {_MAX_DIGITS} digits "
                    f"at degree {d}, got --d-max {args.d_max}"
                )

    rows = bound_table(args.r, args.d_max, m=args.m)
    if args.format == "csv":
        text = table_to_csv(rows)
    else:
        text = table_to_json(rows, args.r, args.m) + "\n"
    _emit(text, args.output)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    from .algorithms import greedy_extract

    h = _load(args.file)
    _check_hub(h, args.r)
    cert = greedy_extract(h, args.r, unsafe=args.unsafe)
    _emit(cert.to_json() + "\n", args.output)
    return 0 if cert.guaranteed else 1


def cmd_exact(args: argparse.Namespace) -> int:
    from .algorithms import exact_alpha

    result = exact_alpha(_load(args.file, exact=True), budget=args.budget)
    _emit(json.dumps(result._asdict()) + "\n", args.output)
    return 0 if result.exact else 1


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import InstanceSpec, generate

    spec = InstanceSpec(args.family, args.n, args.r, args.m, args.seed)
    h, complete = generate(spec)
    _emit(format_hg(h), args.output)
    if args.output != "-":
        sidecar = {"spec": spec._asdict(), "n": h.n, "m": h.m, "complete": complete}
        _write(args.output + ".json", json.dumps(sidecar) + "\n")
    if not complete:
        print(
            f"warning: reached only {h.m} of {args.m} edges before the rejection cap",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .algorithms import exact_alpha, greedy_extract
    from .bounds import as_ratio, caro_tuza_total, chishti_bound

    h = _load(args.file, exact=args.budget is not None)  # else exact only at n <= 60
    _check_hub(h, args.r)
    cert = greedy_extract(h, args.r)  # enforces the hypotheses
    pot = cert.guarantee
    ct = caro_tuza_total(h, args.r)
    # the bound averages over the vertices, so it has no value at n = 0
    cz_txt = f"{chishti_bound(h, args.r):.6f}" if h.n else "n/a"
    if h.n <= 60 or args.budget is not None:
        budget = args.budget if args.budget is not None else _DEFAULT_EXACT_BUDGET
        res = exact_alpha(h, budget=budget)
        exact_txt = str(res.alpha) if res.exact else f">={res.alpha}"
    else:
        exact_txt = "n/a"
    line = (
        f"n={h.n} m={h.m} "
        f"potential={as_ratio(pot)} potential_float={float(pot):.6f} "
        f"caro_tuza={as_ratio(ct)} caro_tuza_float={float(ct):.6f} "
        f"chishti={cz_txt} "
        f"greedy={len(cert.independent_set)} exact={exact_txt}\n"
    )
    _emit(line, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperind",
        description=(
            "Independent sets in uniform linear triangle-free hypergraphs: "
            "structural checks, degree-sequence bounds, certified greedy "
            "extraction, exact search, and instance generation."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, file=False, r=False):
        c = sub.add_parser(name, help=help)
        if file:
            c.add_argument("file", help=".hg input path")
        if r:
            c.add_argument("--r", type=int, required=True, help="uniformity (>= 2)")
        c.set_defaults(func=func)
        return c

    command("check", cmd_check, "print the predicate report of a .hg file", file=True)

    c = command(
        "bounds-table", cmd_bounds_table, "tabulate all four bound functions", r=True
    )
    c.add_argument("--d-max", type=int, required=True, help="largest degree")
    c.add_argument("--m", type=int, default=1, help="neighborhood-degree parameter")
    c.add_argument("--format", choices=("csv", "json"), default="csv")

    c = command(
        "extract", cmd_extract, "greedy extraction with certificate", file=True, r=True
    )
    c.add_argument(
        "--unsafe",
        action="store_true",
        help="run even when preconditions fail (certificate not guaranteed)",
    )

    c = command("exact", cmd_exact, "branch-and-bound independence number", file=True)
    c.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node limit (unlimited when omitted); exceeding it flags the result",
    )

    c = command("gen", cmd_gen, "write a generated instance as .hg")
    c.add_argument("--family", choices=FAMILIES, required=True)
    c.add_argument("--n", type=int, default=0, help="vertices (random family)")
    c.add_argument("--r", type=int, default=3, help="uniformity")
    c.add_argument(
        "--m",
        type=int,
        default=0,
        help="edge target (random) or edge count k (named families)",
    )
    c.add_argument("--seed", type=int, default=0, help="RNG seed (random family)")

    c = command(
        "compare", cmd_compare, "bounds vs greedy vs exact on one instance",
        file=True, r=True,
    )
    c.add_argument(
        "--budget",
        type=int,
        default=None,
        help="run exact search with this node limit even when n > 60",
    )

    # -o comes last, so help and usage list it after each command's own options
    for name, c in sub.choices.items():
        note = "; a file also gets a .json sidecar" if name == "gen" else ""
        c.add_argument(
            "-o", "--output", default="-", help=f"output path ('-' = stdout){note}"
        )
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
