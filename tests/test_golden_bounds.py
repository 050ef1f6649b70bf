"""Bound tables are frozen at six decimals; the integrals track mpmath.

One sha256 over table_to_csv(bound_table(r, 400)) for r = 2..6 and
over one m = 2 table, which exercises li_zang's m.  The digest in
golden/bounds.json was recorded before the quadrature moved off numpy;
a rewrite of the quadrature may move the full-precision f_LZ and
f_CZPI values only within tol, and that is checked against the mpmath
oracles on a grid of r and x.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import hyperind as hi
from oracles import mp_chishti, mp_li_zang

GOLDEN = json.loads((Path(__file__).parent / "golden" / "bounds.json").read_text())

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


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_integral_bounds_within_tol_of_mpmath(r):
    for x in GRID_X:
        for m in (1, 2):
            got = hi.li_zang(r, m, x, TOL)
            assert abs(got - float(mp_li_zang(r, m, x))) <= TOL, (r, m, x)
        got = hi.chishti(r, x, TOL)
        assert abs(got - float(mp_chishti(r, x))) <= TOL, (r, x)
