"""Bound functions: exact recurrences, closed forms, and quadrature."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import hyperind as hi
from hyperind.errors import (
    BadUniformity,
    EmptyHypergraph,
    NegativeDegree,
    NonConvergent,
)
from oracles import (
    brute_chishti,
    brute_li_zang,
    mp_caro_tuza,
    mp_chishti,
    mp_chishti_hyp2f1,
    mp_li_zang,
    mp_shearer_s1,
    mp_weight_sequence,
    shearer_s2_sequence,
)

LOOSE = hi.Hypergraph(5, [(0, 1, 2), (2, 3, 4)])

# values frozen from the high-resolution oracles before the adaptive
# quadrature was written; see the pin tests below
PIN_LI_ZANG_3_1_5 = 0.19636583421971396
PIN_CHISHTI_3_10 = 0.27224112480112034
PIN_CHISHTI_BOUND_LOOSE = 2.7246485235768730


# --- exact recurrences ------------------------------------------------------


def test_potential_weight_anchors():
    assert hi.potential_weight(3, 0) == 1
    assert hi.potential_weight(3, 1) == Fraction(2, 3)
    assert hi.potential_weight(3, 2) == Fraction(5, 9)
    assert hi.potential_weight(3, 3) == Fraction(28, 57)
    assert hi.potential_weight(2, 2) == Fraction(2, 5)
    assert hi.potential_weight(2, 3) == Fraction(17, 50)
    for r in range(2, 11):
        assert hi.potential_weight(r, 1) == Fraction(r - 1, r)


def test_potential_weight_against_mp_iteration():
    for r in (2, 3, 5, 10):
        seq = mp_weight_sequence(r, 60)
        for d in range(61):
            exact = hi.potential_weight(r, d)
            with mp.workdps(50):
                err = abs(seq[d] - mp.mpf(exact.numerator) / exact.denominator)
                assert err < mp.mpf("1e-40")


def test_potential_weight_monotone_strict():
    for r in (2, 3, 7):
        prev = hi.potential_weight(r, 0)
        for d in range(1, 200):
            cur = hi.potential_weight(r, d)
            assert cur < prev
            prev = cur


def test_caro_tuza_values():
    assert hi.caro_tuza(3, 0) == 1
    assert hi.caro_tuza(3, 1) == Fraction(2, 3)
    assert hi.caro_tuza(3, 2) == Fraction(8, 15)
    assert hi.caro_tuza(2, 5) == Fraction(1, 6)  # graphs: 1/(d+1)


def test_caro_tuza_gamma_identity():
    for r, d in ((3, 2), (3, 17), (4, 9), (6, 30)):
        exact = hi.caro_tuza(r, d)
        with mp.workdps(50):
            err = abs(
                mp_caro_tuza(r, d) - mp.mpf(exact.numerator) / exact.denominator
            )
            assert err < mp.mpf("1e-40")


def test_shearer_s2_values():
    s2 = shearer_s2_sequence(300)
    assert s2[:3] == [1, Fraction(1, 2), Fraction(2, 5)]
    for d in range(301):
        assert hi.potential_weight(2, d) == s2[d]


def test_shearer_s1_values():
    assert hi.shearer_s1(0) == 1.0
    assert hi.shearer_s1(1) == 0.5
    assert abs(hi.shearer_s1(2) - (2 * math.log(2) - 1)) < 1e-15
    assert abs(hi.shearer_s1(2) - 0.386294) < 1e-6
    with pytest.raises(NegativeDegree):
        hi.shearer_s1(-0.5)


def test_shearer_s1_series_window():
    # the removable singularity at d = 1, approached from both sides
    xs = _chishti_grid(2) + [1 + e for e in (9e-5, 1.1e-4, 2e-4)]
    xs += [1 - e for e in (9e-5, 1.1e-4, 2e-4)]
    worst = 0
    for d in xs:
        want = float(mp_shearer_s1(d))
        worst = max(worst, abs(hi.shearer_s1(d) - want) / want)
    assert worst <= 1e-14, worst


def test_convexity_minorant_values():
    for r in range(2, 7):
        assert hi.convexity_minorant(r, 0) == Fraction(3, 5)
    assert hi.convexity_minorant(3, 2) == Fraction(1, 3)
    for r in (2, 3, 5):
        for d in range(0, 200):
            assert hi.convexity_minorant(r, d) <= hi.potential_weight(r, d)


def test_domain_errors():
    for fn in (hi.potential_weight, hi.caro_tuza, hi.convexity_minorant):
        with pytest.raises(BadUniformity):
            fn(1, 3)
        with pytest.raises(NegativeDegree):
            fn(3, -1)
    with pytest.raises(NegativeDegree):
        hi.potential_weight(2, -2)
    # r, d and m are integers that are not bools, taken through
    # operator.index as the Hypergraph constructor takes vertex ids;
    # each refusal keeps its class and its message
    for fn in (hi.potential_weight, hi.caro_tuza, hi.convexity_minorant):
        for bad in (True, False, 2.0, "3"):
            with pytest.raises(
                NegativeDegree, match=f"non-negative integer, got {bad!r}$"
            ):
                fn(3, bad)
            with pytest.raises(BadUniformity, match=f">= 2, got {bad!r}$"):
                fn(bad, 2)
        assert fn(np.int64(3), np.int64(2)) == fn(3, 2)
    with pytest.raises(ValueError, match="m must be an integer >= 1, got True$"):
        hi.li_zang(3, True, 2.0)
    assert hi.li_zang(np.int64(3), np.int64(2), 2.0) == hi.li_zang(3, 2, 2.0)
    with pytest.raises(NegativeDegree):
        hi.bound_table(3, True)
    assert hi.bound_table(3, np.int64(2)) == hi.bound_table(3, 2)
    assert hi.potential(LOOSE, np.int64(3)) == hi.potential(LOOSE, 3)


# --- quadrature -------------------------------------------------------------


def test_li_zang_pins():
    # the fixed tolerance aims at 1e-9
    assert hi.li_zang(3, 1, 5) == pytest.approx(PIN_LI_ZANG_3_1_5, abs=1e-9)
    assert abs(PIN_LI_ZANG_3_1_5 - brute_li_zang(3, 1, 5.0)) < 1e-8
    assert abs(PIN_LI_ZANG_3_1_5 - float(mp_li_zang(3, 1, 5))) < 1e-9


def test_chishti_pins():
    # the closed form is good to a few ulps
    assert hi.chishti(3, 10) == pytest.approx(PIN_CHISHTI_3_10, abs=1e-14)
    assert abs(PIN_CHISHTI_3_10 - brute_chishti(3, 10.0)) < 1e-8
    assert abs(PIN_CHISHTI_3_10 - float(mp_chishti(3, 10))) < 1e-9


def test_quadrature_at_zero_is_analytic():
    assert hi.li_zang(4, 2, 0) == 1.0
    assert hi.chishti(5, 0) == 1.0
    assert hi.li_zang(2, 1, 0.0) == 1.0


@pytest.mark.parametrize("x", [0.25, 1.0, 1.5, 2.0, 7.5, 33.0])
def test_graph_reduction_identities(x):
    s1 = float(mp_shearer_s1(x))
    assert abs(hi.li_zang(2, 1, x) - s1) < 1e-8
    assert abs(hi.chishti(2, x) - s1) < 1e-14


@pytest.mark.parametrize("r,m", [(3, 1), (3, 2), (4, 1), (5, 3)])
@pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 20.0])
def test_li_zang_against_brute(r, m, x):
    assert abs(hi.li_zang(r, m, x) - brute_li_zang(r, m, x)) < 1e-7


@pytest.mark.parametrize("r", [3, 4, 6])
@pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 20.0])
def test_chishti_against_brute(r, x):
    assert abs(hi.chishti(r, x) - brute_chishti(r, x)) < 1e-7


def test_exact_value_at_x_one_m_one():
    # at x = m = 1 the kernel loses its x-dependence and the integral
    # collapses to B(1/(r-1), a+1)/B(1/(r-1), a) = a/(a + 1/(r-1)) = 1/r
    for r in (2, 3, 4, 7):
        assert abs(hi.li_zang(r, 1, 1) - 1.0 / r) < 1e-9


def test_reprinted_minus_form_misses_graph_bound():
    # the "-" denominator of the reprinted formulas converges at r = 2,
    # x = 1.5 (no pole before x = 2m resp. 2/(r-1)), yet misses the exact
    # graph bound shearer_s1; the "+" form, which li_zang and chishti
    # evaluate, meets it
    s1 = hi.shearer_s1(1.5)
    assert abs(float(mp_li_zang(2, 1, 1.5, sign=-1)) - s1) > 1e-3
    assert abs(float(mp_chishti(2, 1.5, sign=-1)) - s1) > 1e-3
    assert abs(float(mp_li_zang(2, 1, 1.5)) - s1) < 1e-12
    assert abs(float(mp_chishti(2, 1.5)) - s1) < 1e-12


def test_quadrature_argument_errors():
    with pytest.raises(BadUniformity):
        hi.li_zang(1, 1, 2.0)
    with pytest.raises(ValueError):
        hi.li_zang(3, 0, 2.0)
    # the integrands have one sign and one tolerance; no switch sets either
    for knob in ({"kernel": "printed"}, {"tol": 1e-9}):
        with pytest.raises(TypeError):
            hi.li_zang(3, 1, 2.0, **knob)
        with pytest.raises(TypeError):
            hi.chishti(3, 1.0, **knob)
    with pytest.raises(TypeError):
        hi.chishti_bound(LOOSE, 3, tol=1e-9)
    with pytest.raises(TypeError):
        hi.bound_table(3, 2, tol=1e-9)
    with pytest.raises(NegativeDegree):
        hi.li_zang(3, 1, -1.0)
    with pytest.raises(NegativeDegree):
        hi.chishti(3, -0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "bound",
    [lambda x: hi.li_zang(3, 1, x), lambda x: hi.chishti(3, x), hi.shearer_s1],
    ids=["li_zang", "chishti", "shearer_s1"],
)
def test_non_finite_argument_raises(bound, x):
    with pytest.raises(ValueError, match="finite"):
        bound(x)


@pytest.mark.parametrize("x", [0, 1.0])
def test_parameters_without_a_float_value_raise(x):
    # ValueError, not OverflowError, and at x = 0 as well
    huge = 10**400
    for call, name in (
        (lambda: hi.li_zang(3, huge, x), "m"),
        (lambda: hi.li_zang(huge, 1, x), "(r-1)^2 m"),
        (lambda: hi.li_zang(3, 10**308, x), "(r-1)^2 m"),
        (lambda: hi.chishti(huge, x), "r - 1"),
        (lambda: hi.li_zang(3, 1, huge), "argument"),
        (lambda: hi.shearer_s1(huge), "argument"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} is too large")):
            call()


def test_unreachable_tolerance_raises():
    # the fixed tolerance is out of reach here within the split budget;
    # the message gives the estimate on li_zang's scale against 1e-09,
    # not against the integral's internally rescaled target
    with pytest.raises(
        NonConvergent,
        match=r"^estimated error \d\.\d{3}e-\d\d still above tol=1e-09 after "
        r"20000 panel splits$",
    ):
        hi.li_zang(3, 5, 1e-12)


def _chishti_grid(r):
    # a log grid over x in [1e-300, 1e9], plus the series boundaries
    # s = (r-1)x in {1/2, 1, 2} and their float neighbours
    xs = [10.0 ** (k / 4) for k in range(-1200, 37)]
    for s in (0.5, 1.0, 2.0):
        x = s / (r - 1)
        xs += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return xs


@pytest.mark.parametrize("r", [*range(2, 11), 101, 1001, 10**6 + 1, 10**9 + 1])
def test_chishti_against_closed_form_oracle(r):
    # relative to mpmath's hyp2f1 at 40 digits: every series and the
    # r = 2 closed form, from x = 1e-300 up, with no NonConvergent; at
    # large r only the logarithmic range s = (r-1)x < 1/2, where the
    # digamma term depends on r
    xs = _chishti_grid(r)
    if r > 10:
        xs = [x for x in xs if (r - 1) * x < 0.5]
    worst = 0
    for x in xs:
        want = mp_chishti_hyp2f1(r, x)
        worst = max(worst, abs(hi.chishti(r, x) - want) / want)
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("r", range(2, 7))
def test_chishti_table_cells_correctly_rounded(r):
    # every six-decimal f_CZPI cell of the d_max 400 table is the
    # rounding of the true value
    cells = hi.table_to_csv(hi.bound_table(r, 400)).splitlines()[1:]
    for d, line in enumerate(cells):
        with mp.workdps(40):
            q = int(mp.nint(mp_chishti_hyp2f1(r, d) * 10**6))
        assert line.split(",")[2] == f"{q // 10**6}.{q % 10**6:06d}", (r, d)


@pytest.mark.parametrize("r,m,x", [(3, 1, 1e-20), (2, 2, 1e-16), (4, 2, 1e-300)])
def test_li_zang_tiny_argument_raises_nonconvergent(r, m, x):
    # x - m rounds to -m, so the integrand is 0/0 where t rounds to 1;
    # that has no float value, and neither a bare ZeroDivisionError nor
    # a made-up value may escape
    with pytest.raises(NonConvergent, match="float integrand"):
        hi.li_zang(r, m, x)


def test_gauss_legendre_rules_match_numpy():
    # numpy serves only as an oracle here; the library does not use it
    from hyperind.bounds import _GL7, _GL15

    for k, rule in ((7, _GL7), (15, _GL15)):
        x, w = np.polynomial.legendre.leggauss(k)
        nodes, weights = zip(*rule)
        assert np.max(np.abs(np.array(nodes) - x)) <= 1e-15
        assert np.max(np.abs(np.array(weights) - w)) <= 1e-15


# --- hypergraph-level sums --------------------------------------------------


def test_potential_values():
    assert hi.potential(hi.Hypergraph(3, [(0, 1, 2)]), 3) == 2
    assert hi.potential(LOOSE, 3) == Fraction(29, 9)
    assert hi.potential(hi.Hypergraph(4, []), 3) == 4
    assert hi.potential(hi.Hypergraph(0, []), 3) == 0
    for k, r in ((3, 3), (5, 2), (2, 6)):
        assert hi.potential(hi.matching(k, r), r) == k * (r - 1)
    with pytest.raises(BadUniformity):
        hi.potential(LOOSE, 1)


def test_caro_tuza_total():
    assert hi.caro_tuza_total(LOOSE, 3) == Fraction(16, 5)
    assert hi.caro_tuza_total(hi.Hypergraph(2, []), 4) == 2


def test_potential_dominates_caro_tuza_total():
    # strict whenever r >= 3 and some vertex has degree >= 2
    assert hi.potential(LOOSE, 3) > hi.caro_tuza_total(LOOSE, 3)
    path = hi.loose_path(6, 4)
    assert hi.potential(path, 4) > hi.caro_tuza_total(path, 4)
    # equality when every degree is <= 1
    match = hi.matching(3, 3)
    assert hi.potential(match, 3) == hi.caro_tuza_total(match, 3)


def test_chishti_bound():
    # the estimate aims at n * 1e-9 = 5e-9
    assert hi.chishti_bound(LOOSE, 3) == pytest.approx(
        PIN_CHISHTI_BOUND_LOOSE, abs=5e-9
    )
    assert abs(PIN_CHISHTI_BOUND_LOOSE - 5 * brute_chishti(3, 1.2)) < 5e-8
    assert hi.chishti_bound(hi.Hypergraph(4, []), 3) == 4.0
    # single graph edge: 2 * s1(1) = 1
    assert hi.chishti_bound(hi.Hypergraph(2, [(0, 1)]), 2) == pytest.approx(
        1.0, abs=1e-8
    )
    with pytest.raises(EmptyHypergraph):
        hi.chishti_bound(hi.Hypergraph(0, []), 3)


# --- tables -----------------------------------------------------------------


def test_bound_table_row_zero_and_one():
    rows = hi.bound_table(3, 1)
    assert rows[0].d == 0
    assert [type(cell) for cell in rows[1]] == [int, float, float, Fraction, Fraction]
    assert rows[0].f_ct == 1 and rows[0].f_r == 1
    assert rows[0].f_lz == 1.0 and rows[0].f_czpi == 1.0
    assert rows[1].f_ct == rows[1].f_r == Fraction(2, 3)
    r4 = hi.bound_table(4, 0)
    assert abs(r4[0].f_lz - 1.0) <= 1e-9
    assert abs(r4[0].f_czpi - 1.0) <= 1e-9


def test_bound_table_values_in_unit_interval():
    for row in hi.bound_table(3, 25):
        for cell in (row.f_lz, row.f_czpi, row.f_ct, row.f_r):
            assert 0.0 < float(cell) <= 1.0


def test_bound_table_columns_non_increasing():
    rows = hi.bound_table(4, 25)
    for a, b in zip(rows, rows[1:]):
        assert a.f_lz >= b.f_lz
        assert a.f_czpi >= b.f_czpi
        assert a.f_ct > b.f_ct
        assert a.f_r > b.f_r


def test_bound_table_threads_bit_identical():
    seq = hi.bound_table(3, 12)
    par = hi.bound_table(3, 12, max_workers=4)
    assert seq == par
    assert hi.table_to_csv(seq) == hi.table_to_csv(par)


def test_table_to_csv_shape():
    text = hi.table_to_csv(hi.bound_table(3, 2))
    lines = text.split("\n")
    assert lines[0] == "d,f_LZ,f_CZPI,f_CT,f_r"
    assert lines[1] == "0,1.000000,1.000000,1.000000,1.000000"
    assert len(lines) == 5 and lines[-1] == ""  # 3 rows + header + final LF
    assert text.endswith("\n") and "\r" not in text


def test_table_to_json_exact_columns():
    import json

    payload = json.loads(hi.table_to_json(hi.bound_table(3, 2), 3, 1))
    assert payload["r"] == 3 and payload["m"] == 1 and payload["tol"] == 1e-9
    assert payload["rows"][2]["f_r"] == "5/9"
    assert payload["rows"][2]["f_CT"] == "8/15"
    assert isinstance(payload["rows"][2]["f_LZ"], float)


def test_as_ratio():
    assert hi.as_ratio(Fraction(29, 9)) == "29/9"
    assert hi.as_ratio(Fraction(0)) == "0/1"
    assert hi.as_ratio(Fraction(4)) == "4/1"
