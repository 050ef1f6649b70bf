"""Bound tables are frozen at six decimals and at full precision.

One sha256 over table_to_csv(bound_table(r, 400)) for r = 2..6 and
over one m = 2 table, which exercises li_zang's m.  That digest was
recorded before the quadrature moved off numpy, and the integrals are
checked against the mpmath oracles on a grid of r and x.

A second sha256, tables_d400_full, covers the same tables through
table_to_json, which prints every float in full (repr).  It catches a
last-bit drift that six decimals hide; it was recorded before the
integral bounds lost their sign switch and the table rows their
per-cell records, and re-recorded when chishti moved from quadrature
to its closed form, which changed last bits of f_CZPI and no f_LZ bit.
It rests on the platform's libm (pow, exp, log, sin) giving the same
bits.

cli_bounds_table_r4_d400 is the sha256 of the stdout of
`hyperind bounds-table --r 4 --d-max 400`, the table whose f_LZ cell at
d = 369 is misrounded (see hyperind.bounds); CI checks the same digest
without the test extras.  cli_bounds_table_r3_d40_json does the same for
`hyperind bounds-table --r 3 --d-max 40 --format json`, which prints
the tolerance and every float in full; it was re-recorded with
tables_d400_full.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import hyperind as hi
from hyperind.bounds import _panel
from hyperind.cli import main
from hyperind.errors import NonConvergent
from oracles import mp_chishti, mp_li_zang

GOLDEN = json.loads((Path(__file__).parent / "golden" / "bounds.json").read_text())

# li_zang's and chishti's fixed error-estimate target
TOL = 1e-9
# (r, m) of the frozen tables, all at d_max = 400
TABLES = [(r, 1) for r in range(2, 7)] + [(3, 2)]
GRID_X = (0.5, 1, 2.5, 7, 40, 150, 400)


def test_bound_tables_frozen():
    sha = hashlib.sha256()
    for r, m in TABLES:
        sha.update(f"r={r} m={m}\n".encode())
        sha.update(hi.table_to_csv(hi.bound_table(r, 400, m=m)).encode())
    assert sha.hexdigest() == GOLDEN["tables_d400"]


def test_bound_tables_frozen_at_full_precision():
    sha = hashlib.sha256()
    for r, m in TABLES:
        sha.update(f"r={r} m={m}\n".encode())
        sha.update(hi.table_to_json(hi.bound_table(r, 400, m=m), r, m).encode())
    assert sha.hexdigest() == GOLDEN["tables_d400_full"]


def test_bounds_table_cli_output_frozen(capsys):
    assert main(["bounds-table", "--r", "4", "--d-max", "400"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["cli_bounds_table_r4_d400"]


def test_bounds_table_cli_json_output_frozen(capsys):
    argv = ["bounds-table", "--r", "3", "--d-max", "40", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN["cli_bounds_table_r3_d40_json"]


def _grid_points():
    for r in range(2, 7):
        for x in GRID_X:
            for m in (1, 2):
                yield (hi.li_zang, r, m, x)
            yield (hi.chishti, r, None, x)


def _evaluate(point):
    fn, r, m, x = point
    args = (r, x) if m is None else (r, m, x)
    return fn(*args).hex()


def test_integral_bounds_do_not_depend_on_call_order():
    # li_zang's panel cache is keyed by r-1 and its exponent, a key
    # part the six-decimal digest would not notice missing.  Each value
    # on an empty cache must equal, bit for bit, the value read in
    # reversed order after d_max 400 tables for ten (r, m) have filled
    # the cache.
    points = list(_grid_points())
    cold = {}
    for point in points:
        _panel.cache_clear()
        cold[point] = _evaluate(point)
    _panel.cache_clear()
    for r, m in reversed(TABLES + [(r, 2) for r in (2, 4, 5, 6)]):
        hi.bound_table(r, 400, m=m)
    warm = {point: _evaluate(point) for point in reversed(points)}
    assert warm == cold


def test_panel_caches_stay_bounded():
    # a call that exhausts the split budget must not grow the cache past
    # its maxsize
    _panel.cache_clear()
    with pytest.raises(NonConvergent):
        hi.li_zang(3, 5, 1e-12)
    info = _panel.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_integral_bounds_within_tol_of_mpmath(r):
    for x in GRID_X:
        for m in (1, 2):
            got = hi.li_zang(r, m, x)
            assert abs(got - float(mp_li_zang(r, m, x))) <= TOL, (r, m, x)
        got = hi.chishti(r, x)
        assert abs(got - float(mp_chishti(r, x))) <= TOL, (r, x)
