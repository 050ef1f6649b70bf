"""Degree-sequence lower bounds on the independence number.

Five families of per-vertex weight functions are provided:

* ``potential_weight`` -- exact rational recurrence; its sum over the
  degree sequence (``potential``) is the guarantee attained by the
  greedy extractor for r-uniform linear triangle-free input.
* ``caro_tuza`` -- the classical product-form weight, for comparison.
* ``shearer_s1`` -- the closed-form graph bound, ``chishti`` at r = 2;
  ``potential_weight`` at r = 2 is the exact graph recurrence above it.
* ``li_zang`` -- integral-form bound evaluated by adaptive GL7/GL15
  Gauss-Legendre quadrature, in the standard library alone (rules
  computed at import, fsum sums).
  Panels are dyadic halvings of [0, 1], so every degree visits the same
  panel nodes; the values there that do not depend on the degree are
  kept in one bounded panel cache, keyed by r and m and shared across
  calls, so a bound table pays for each panel's powers once.  Each
  entry pairs a node's numerator with its t, so a degree's pass reads
  both in one step and divides by the float m + (x - m)t.
* ``chishti`` -- integral-form bound in closed form: a Gauss
  hypergeometric function, summed by the one series that converges
  geometrically at the argument and stopped on a proven tail bound.

The quadrature is not certified.  It stops once an error *estimate*,
the summed |GL15 - GL7| over its panels, drops below the fixed
tolerance _TOL = 1e-9; that is not a bound on the true error.  So a
six-decimal f_LZ table cell can be misrounded: the d_max 400 table
prints f_LZ(r=4, m=1, d=369) as 0.043747, where the true value
0.0437464998537 rounds to 0.043746, and li_zang(5, 2, 1e-12) is 9.0e-6
off.  ROADMAP item 2 plans the same kind of closed form for li_zang.

The integrands carry a "+" sign in the denominator
(``m + (x-m)t`` and ``1 + ((r-1)x - 1)t``): the widely reprinted "-"
forms have a pole inside (0, 1) once x > 2m (resp. x > 2/(r-1)) and
miss the exact r = 2 closed form even where they converge, while the
"+" forms reproduce it to machine precision.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Union

from . import _EXPORTS
from .core import Hypergraph
from .errors import (
    BadArgument,
    BadUniformity,
    EmptyHypergraph,
    NegativeDegree,
    NonConvergent,
)

__all__ = list(_EXPORTS["bounds"])

Real = Union[int, float, Fraction]


def _check_r(r: int) -> None:
    if not isinstance(r, int) or r < 2:
        raise BadUniformity(f"uniformity must be an integer >= 2, got {r!r}")


def _check_d(d: int) -> None:
    if not isinstance(d, int) or d < 0:
        raise NegativeDegree(f"degree must be a non-negative integer, got {d!r}")


def _as_float(name: str, v: Real) -> float:
    """v as a float, or BadArgument where v has no float value."""
    try:
        return float(v)
    except OverflowError:
        raise BadArgument(f"{name} is too large for a float") from None


def _check_x(x: Real) -> float:
    xf = _as_float("argument", x)
    if not math.isfinite(xf):
        raise BadArgument(f"argument must be finite, got {x!r}")
    if xf < 0:
        raise NegativeDegree(f"argument must be non-negative, got {x!r}")
    return xf


# ---------------------------------------------------------------------------
# exact rational recurrences
# ---------------------------------------------------------------------------

_WEIGHT_CACHE: dict[int, list[Fraction]] = {}
_CT_CACHE: dict[int, list[Fraction]] = {}


def potential_weight(r: int, d: int) -> Fraction:
    """Weight of a degree-d vertex in the potential bound, exact.

    w(0) = 1 and

        w(d) = (1 + ((r-1)d^2 - d) w(d-1)) / (1 + (r-1)d^2).

    The weight is non-increasing and convex in d, and summing it over
    the degree sequence of an r-uniform linear triangle-free hypergraph
    lower-bounds the independence number.
    """
    _check_r(r)
    _check_d(d)
    vals = _WEIGHT_CACHE.setdefault(r, [Fraction(1)])
    while len(vals) <= d:
        k = len(vals)
        c = (r - 1) * k * k
        vals.append((1 + (c - k) * vals[-1]) / (1 + c))
    return vals[d]


def caro_tuza(r: int, d: int) -> Fraction:
    """Classical product-form weight, exact:  prod_{i<=d} (r-1)i / ((r-1)i + 1).

    Equals the inverse generalized binomial coefficient C(d + 1/(r-1), d)^-1.
    """
    _check_r(r)
    _check_d(d)
    vals = _CT_CACHE.setdefault(r, [Fraction(1)])
    while len(vals) <= d:
        k = len(vals)
        vals.append(vals[-1] * ((r - 1) * k) / ((r - 1) * k + 1))
    return vals[d]


def shearer_s1(d: Real) -> float:
    """Graph bound (d ln d - d + 1) / (d - 1)^2 at a real argument d >= 0.

    This is chishti(2, d): 1/2 at d = 1, exactly 1.0 at d = 0; a d that
    is not finite or too large for a float raises ValueError, a negative
    one NegativeDegree.
    """
    return chishti(2, d)


def convexity_minorant(r: int, d: int) -> Fraction:
    """Explicit rational minorant ((2r-1)d + 3r) / (r(d^2 + 5d + 5)).

    Lies below potential_weight(r, .) for all d >= 0 and certifies its
    convexity; equals 3/5 at d = 0 for every r.
    """
    _check_r(r)
    _check_d(d)
    return Fraction((2 * r - 1) * d + 3 * r, r * (d * d + 5 * d + 5))


# ---------------------------------------------------------------------------
# li_zang by adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(k: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the k-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence
    (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}, started at
    x = cos(pi (i - 1/4) / (k + 1/2)); the weight is 2 / ((1-x^2) P_k'(x)^2).
    """
    rule = []
    for i in range(1, k + 1):
        x = math.cos(math.pi * (i - 0.25) / (k + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for j in range(1, k):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            dp = k * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / dp
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(sorted(rule))


_GL7, _GL15 = _gauss_legendre(7), _gauss_legendre(15)
# the GL15 and then the GL7 nodes, and each rule's weights
_NODES = tuple(x for x, _ in _GL15 + _GL7)
_W15, _W7 = (tuple(w for _, w in rule) for rule in (_GL15, _GL7))
_MAX_SPLITS = 20000
_TOL = 1e-9  # target of li_zang's summed error estimate
# panels _panel keeps; a d_max 400 table visits about 40 per (r, m)
_PANEL_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PANEL_CACHE_SIZE)
def _panel(
    rm1: int, gamma: float, a: float, b: float
) -> tuple[tuple[float, float], ...]:
    """li_zang's (numerator, t) pairs at the GL15 and then the GL7 nodes
    u of [a, b]: t = min(u^(r-1), 1) and numerator (r-1)(1-t)^gamma,
    paired so that li_zang reads each node's two values in one step."""
    c, hw = 0.5 * (a + b), 0.5 * (b - a)
    ts = (min((c + hw * x) ** rm1, 1.0) for x in _NODES)
    return tuple((rm1 * (1.0 - t) ** gamma, t) for t in ts)


def _beta(alpha: float, beta: float) -> float:
    return math.exp(
        math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    )


def li_zang(r: int, m: int, x: Real) -> float:
    """Integral-form bound with neighborhood-degree parameter m.

    Evaluates (m/B) int_0^1 (1-t)^(a/m) / (t^b (m + (x-m)t)) dt with
    a = 1/(r-1)^2, b = (r-2)/(r-1) and normalizer B = Beta(1/(r-1), a/m)
    computed via log-Gamma.  The substitution t = u^(r-1) removes the
    t^-b endpoint singularity before quadrature.  At x = 0 the denominator
    reduces to m(1-t) and the integral cancels against B exactly, so
    1.0 is returned without quadrature.  A non-finite x raises
    ValueError, a negative one NegativeDegree, and an x > 0 so small
    that x - m rounds to -m NonConvergent (0/0 where t rounds to 1).
    An x, m or (r-1)^2 m too large for a float raises ValueError.

    The quadrature halves the dyadic panel of [0, 1] with the largest
    |GL15 - GL7| until the summed estimate, on the bound's scale, drops
    below _TOL: an estimate, not a bound on |result - true value| (see
    the module docstring).  It raises NonConvergent after _MAX_SPLITS
    splits or once that panel can no longer be split in float arithmetic.
    """
    _check_r(r)
    if not isinstance(m, int) or m < 1:
        raise BadArgument(f"m must be an integer >= 1, got {m!r}")
    xf = _check_x(x)
    rm1 = r - 1
    # float + float in the nodes' denominators: int + float converts the
    # int by this same correctly rounded conversion, so no bit moves
    mf = _as_float("m", m)
    gamma = 1.0 / _as_float("(r-1)^2 m", rm1 * rm1 * m)  # exponent a/m
    if xf == 0.0:
        return 1.0
    bnorm = _beta(1.0 / rm1, gamma)
    k = xf - mf
    tol = _TOL * bnorm / mf  # _TOL on the integral's own scale

    def panel(a: float, b: float) -> tuple[float, float]:
        hw = 0.5 * (b - a)
        try:
            ys = [num / (mf + k * t) for num, t in _panel(rm1, gamma, a, b)]
        except ZeroDivisionError:  # 0/0 at t == 1.0 once x - m rounds to -m
            raise NonConvergent(
                f"li_zang has no float integrand at x={xf!r}"
            ) from None
        v15 = hw * math.fsum(map(operator.mul, _W15, ys))
        v7 = hw * math.fsum(map(operator.mul, _W7, ys[15:]))
        return v15, abs(v15 - v7)

    v, e = panel(0.0, 1.0)
    heap = [(-e, 0.0, 1.0, v)]
    total_err = e
    splits = 0
    while total_err > tol:
        splits += 1
        if splits > _MAX_SPLITS:
            raise NonConvergent(
                f"estimated error {total_err * (_TOL / tol):.3e} still above "
                f"tol={_TOL:.0e} after {_MAX_SPLITS} panel splits"
            )
        neg_e, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            raise NonConvergent(
                "panel collapsed below float resolution before reaching tol"
            )
        v1, e1 = panel(a, mid)
        v2, e2 = panel(mid, b)
        total_err += e1 + e2 + neg_e
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))
    return (mf / bnorm) * math.fsum(item[3] for item in heap)


# ---------------------------------------------------------------------------
# chishti in closed form
# ---------------------------------------------------------------------------

_EPS = 2.0**-53  # chishti's series stop once their tail is below this share


def _digamma_gap(q: int) -> float:
    """psi(1 + 1/q) + Euler's gamma for an integer q >= 2, in constant time.

    The recurrence psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2) carries x =
    1 + 1/q up to y >= 12, where the asymptotic series (DLMF 5.11.2)
    ln y - 1/(2y) - sum_k B_2k / (2k y^2k), taken through y^-14, is off
    by less than 3e-18.  The sum is accurate to about 1e-15 absolute,
    which is what chishti's logarithmic series needs.
    """
    y = 1.0 + 1.0 / q
    acc = 0.5772156649015329  # Euler's gamma
    while y < 12.0:
        acc -= 1.0 / y
        y += 1.0
    t = 1.0 / (y * y)
    tail = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (
        1 / 240 - t * (1 / 132 - t * (691 / 32760 - t / 12))))))
    return acc + math.log(y) - 0.5 / y - tail


def _hyp1(p: float, q: float, y: float) -> float:
    """2F1(1, p; q; y) = sum_n (p)_n/(q)_n y^n for p, q > 0 and 0 <= y <= 1/2.

    The term ratios (n+p)/(n+q) y are monotone in n and tend to y, so
    every ratio after the one that made a term is at most max(that
    ratio, y), and the tail from that term on is at most the term over
    1 minus that.  The sum stops once this bound is below _EPS times
    the partial sum.
    """
    total = t = 1.0
    n = 0
    while True:
        ratio = (n + p) / (n + q) * y
        t *= ratio
        if t <= _EPS * total * (1.0 - max(ratio, y)):
            return total + t
        total += t
        n += 1


def _log_series(a: float, s: float, d: float) -> float:
    """sum_k c_k s^k (ln s + D_k) for 0 < s < 1/2 and 0 < a <= 1/2.

    c_0 = 1, c_{k+1} = c_k (a+1+k)/(k+1), D_0 = d = psi(1+a) + Euler's
    gamma and D_{k+1} = D_k + 1/(a+1+k) - 1/(k+1), so D_k = psi(1+a+k) -
    psi(1+k) falls from D_0 <= 2 - 2 ln 2 < |ln s| toward 0: every term
    is negative, and the ratios of consecutive terms fall toward s.  The
    same tail bound as in _hyp1 stops the sum.
    """
    ln_s = math.log(s)
    total = t = ln_s + d
    c = 1.0
    k = 0
    while True:
        c *= (a + 1 + k) / (k + 1) * s
        d += 1.0 / (a + 1 + k) - 1.0 / (k + 1)
        k += 1
        prev, t = t, c * (ln_s + d)
        if -t <= _EPS * -total * (1.0 - max(t / prev, s)):
            return total + t
        total += t


def chishti(r: int, x: Real) -> float:
    """Integral-form bound 1/(r-1) int_0^1 (1-t) / (t^b (1 + ((r-1)x - 1)t)) dt.

    With b = (r-2)/(r-1), a = 1/(r-1) and s = (r-1)x, the integral is an
    Euler integral (DLMF 15.6.1): chishti = 2F1(1, a; a+2; 1-s)/(a+1).
    It is summed in closed form, by the one series that converges
    geometrically at s, with ratio at most 1/2:

    * s >= 2: the connection formula in u = 1/s (DLMF 15.8.4, with
      Gamma(1+a) Gamma(1-a) = a pi / sin(a pi)),
      (a pi / sin a pi) u^a (1-u)^(-a-1) - u/(1-a) 2F1(1, 2; 2-a; u);
    * 1 <= s < 2: Pfaff's transformation (DLMF 15.8.1) in w = 1 - 1/s,
      2F1(1, 2; a+2; w) / ((a+1) s);
    * 1/2 <= s < 1: the defining series in z = 1 - s;
    * s < 1/2: the logarithmic case c - a - b = 1 (DLMF 15.8.10),
      1 + a s sum_k c_k s^k (ln s + D_k), see _log_series;
    * r = 2 (a = 1, where the first and last have no finite
      coefficients): (x ln x - x + 1)/(x - 1)^2 for x <= 1/2 or x >= 2,
      and the series in w or z in between.

    Each series stops on a proven tail bound (see _hyp1), so no call
    raises NonConvergent; against mpmath's hyp2f1 the relative error is
    within 1e-14.  A non-finite x raises ValueError, a negative one
    NegativeDegree, an x or r - 1 too large for a float ValueError, and
    x = 0 gives exactly 1.0.
    """
    _check_r(r)
    xf = _check_x(x)
    rm1 = r - 1
    a = 1.0 / _as_float("r - 1", rm1)
    if xf == 0.0:
        return 1.0
    if r == 2 and xf <= 0.5:
        return (xf * math.log(xf) - xf + 1.0) / (1.0 - xf) ** 2
    if r == 2 and xf >= 2.0:
        v = 1.0 / xf  # the same closed form, free of overflow at large x
        return v * (math.log(xf) - 1.0 + v) / (1.0 - v) ** 2
    s = rm1 * xf
    if s >= 2.0:
        u = 1.0 / rm1 / xf  # not 1/s, which is 0 once s overflows
        head = a * math.pi / math.sin(a * math.pi) * u**a * (1.0 - u) ** (-a - 1.0)
        return head - u / (1.0 - a) * _hyp1(2.0, 2.0 - a, u)
    if s >= 1.0:
        return _hyp1(2.0, a + 2.0, 1.0 - 1.0 / s) / ((a + 1.0) * s)
    if s >= 0.5:
        return _hyp1(a, a + 2.0, 1.0 - s) / (a + 1.0)
    return 1.0 + a * s * _log_series(a, s, _digamma_gap(rm1))


# ---------------------------------------------------------------------------
# hypergraph-level bounds
# ---------------------------------------------------------------------------


def potential(h: Hypergraph, r: int) -> Fraction:
    """Sum of potential_weight(r, degree(u)) over all vertices, exact.

    For r-uniform linear triangle-free h this lower-bounds the
    independence number; it is the guarantee the greedy extractor
    certifies.
    """
    _check_r(r)
    return sum(
        (count * potential_weight(r, d) for d, count in h.degree_histogram().items()),
        start=Fraction(0),
    )


def caro_tuza_total(h: Hypergraph, r: int) -> Fraction:
    """Sum of caro_tuza(r, degree(u)) over all vertices, exact."""
    _check_r(r)
    return sum(
        (count * caro_tuza(r, d) for d, count in h.degree_histogram().items()),
        start=Fraction(0),
    )


def chishti_bound(h: Hypergraph, r: int) -> float:
    """n times the chishti value at the average degree.

    Raises EmptyHypergraph for n = 0.
    """
    _check_r(r)
    if h.n == 0:
        raise EmptyHypergraph("bound needs at least one vertex")
    return h.n * chishti(r, h.average_degree())


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------


class TableRow(NamedTuple):
    """All four bounds at one degree: f_lz, a quadrature float whose
    estimated error is at most _TOL = 1e-9; f_czpi, a closed-form float
    within 1e-14 relative; and two exact Fractions."""

    d: int
    f_lz: float
    f_czpi: float
    f_ct: Fraction
    f_r: Fraction


def as_ratio(x: Fraction) -> str:
    """Render an exact value as 'p/q'."""
    return f"{x.numerator}/{x.denominator}"


def bound_table(
    r: int,
    d_max: int,
    m: int = 1,
    max_workers: int = 1,
) -> list[TableRow]:
    """Evaluate all four bounds at d = 0..d_max, one row per degree.

    max_workers is accepted for compatibility and has no effect: rows
    are computed on the calling thread, since a two-thread pool was
    measured slower than one thread.
    """
    _check_r(r)
    _check_d(d_max)
    return [
        TableRow(
            d=d,
            f_lz=li_zang(r, m, d),
            f_czpi=chishti(r, d),
            f_ct=caro_tuza(r, d),
            f_r=potential_weight(r, d),
        )
        for d in range(d_max + 1)
    ]


def table_to_csv(rows: list[TableRow]) -> str:
    """CSV with header d,f_LZ,f_CZPI,f_CT,f_r; six decimals, LF endings."""
    lines = ["d,f_LZ,f_CZPI,f_CT,f_r"]
    for row in rows:
        lines.append(
            f"{row.d},{row.f_lz:.6f},{row.f_czpi:.6f},"
            f"{float(row.f_ct):.6f},{float(row.f_r):.6f}"
        )
    return "\n".join(lines) + "\n"


def table_to_json(rows: list[TableRow], r: int, m: int) -> str:
    """JSON table; exact columns as 'p/q' strings, f_LZ and f_CZPI as floats."""
    import json

    payload = {
        "r": r,
        "m": m,
        "tol": _TOL,
        "rows": [
            {
                "d": row.d,
                "f_LZ": row.f_lz,
                "f_CZPI": row.f_czpi,
                "f_CT": as_ratio(row.f_ct),
                "f_r": as_ratio(row.f_r),
            }
            for row in rows
        ],
    }
    return json.dumps(payload)
