"""Degree-sequence lower bounds on the independence number.

Four families of per-vertex weight functions are provided:

* ``potential_weight`` -- exact rational recurrence; its sum over the
  degree sequence (``potential``) is the guarantee attained by the
  greedy extractor for r-uniform linear triangle-free input.
* ``caro_tuza`` -- the classical product-form weight, for comparison.
* ``shearer_s1`` -- the closed-form graph (r = 2) bound; at r = 2
  ``potential_weight`` is the exact graph recurrence, which dominates it.
* ``li_zang`` / ``chishti`` -- integral-form bounds evaluated by
  adaptive GL7/GL15 Gauss-Legendre quadrature, in the standard library
  alone (rules computed at import, fsum sums).
  Panels are dyadic halvings of [0, 1], so every degree visits the same
  panel nodes; the values there that do not depend on the degree are
  kept in bounded caches and shared across calls, and a bound table
  pays for each panel's powers once.

The quadrature is not certified.  It stops once an error *estimate*,
the summed |GL15 - GL7| over its panels, drops below tol; that is not a
bound on the true error.  So a six-decimal table cell can be misrounded:
the d_max 400 table prints f_LZ(r=4, m=1, d=369) as 0.043747, where the
true value 0.0437464998537 rounds to 0.043746.  ROADMAP item 4 plans a
closed form with a proven error bound.

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
from typing import Callable, NamedTuple, Sequence, Union

from .core import Hypergraph
from .errors import (
    BadUniformity,
    EmptyHypergraph,
    NegativeDegree,
    NonConvergent,
)

__all__ = [
    "potential_weight",
    "caro_tuza",
    "shearer_s1",
    "convexity_minorant",
    "li_zang",
    "chishti",
    "potential",
    "caro_tuza_total",
    "chishti_bound",
    "TableRow",
    "bound_table",
    "table_to_csv",
    "table_to_json",
    "as_ratio",
]

Real = Union[int, float, Fraction]


def _check_r(r: int) -> None:
    if not isinstance(r, int) or r < 2:
        raise BadUniformity(f"uniformity must be an integer >= 2, got {r!r}")


def _check_d(d: int) -> None:
    if not isinstance(d, int) or d < 0:
        raise NegativeDegree(f"degree must be a non-negative integer, got {d!r}")


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

    The removable singularity at d = 1 (limit 1/2) is bridged by a
    three-term series in e = d - 1 for |e| < 1e-4; at d = 0 the value
    is exactly 1.  A non-finite d raises ValueError, a negative one
    NegativeDegree.
    """
    x = float(d)
    if not math.isfinite(x):
        raise ValueError(f"degree must be finite, got {d!r}")
    if x < 0:
        raise NegativeDegree(f"degree must be non-negative, got {d!r}")
    if x == 0.0:
        return 1.0
    e = x - 1.0
    if abs(e) < 1e-4:
        return 0.5 - e / 6.0 + e * e / 12.0
    return (x * math.log(x) - x + 1.0) / (e * e)


def convexity_minorant(r: int, d: int) -> Fraction:
    """Explicit rational minorant ((2r-1)d + 3r) / (r(d^2 + 5d + 5)).

    Lies below potential_weight(r, .) for all d >= 0 and certifies its
    convexity; equals 3/5 at d = 0 for every r.
    """
    _check_r(r)
    _check_d(d)
    return Fraction((2 * r - 1) * d + 3 * r, r * (d * d + 5 * d + 5))


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
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
# panels whose node values each cache below keeps; a d_max 400 table at
# tol 1e-9 visits about 40 panels per (r, m)
_PANEL_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PANEL_CACHE_SIZE)
def _panel_t(rm1: int, a: float, b: float) -> tuple[float, ...]:
    """t = min(u^(r-1), 1) at the GL15 and then the GL7 nodes u of [a, b]."""
    c, hw = 0.5 * (a + b), 0.5 * (b - a)
    return tuple(min((c + hw * x) ** rm1, 1.0) for x in _NODES)


@functools.lru_cache(maxsize=_PANEL_CACHE_SIZE)
def _panel_lz_num(rm1: int, gamma: float, a: float, b: float) -> tuple[float, ...]:
    """li_zang's numerator (r-1)(1-t)^gamma at the nodes of _panel_t."""
    return tuple(rm1 * (1.0 - t) ** gamma for t in _panel_t(rm1, a, b))


def _adaptive_gl(
    values: Callable[[float, float], Sequence[float]], tol: float
) -> float:
    """Globally adaptive Gauss-Legendre integration over [0, 1].

    values(a, b) returns the integrand at the 15 GL15 nodes and then the
    7 GL7 nodes of panel [a, b].  Panels are dyadic halvings of [0, 1],
    so calls at different degrees visit the same panels again, and the
    integrands share their degree-independent node values across calls
    through _panel_t and _panel_lz_num.  Each panel carries a GL15 value and the estimate
    |GL15 - GL7|, each rule summed with math.fsum; the worst panel is
    halved until the summed estimate drops below tol.  Panels are summed
    in position order so the result does not depend on heap internals.
    Raises NonConvergent after _MAX_SPLITS splits or once the worst panel
    can no longer be split in float arithmetic.
    """

    def panel(a: float, b: float) -> tuple[float, float]:
        hw = 0.5 * (b - a)
        ys = values(a, b)
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
                f"estimated error {total_err:.3e} still above tol={tol:.3e} "
                f"after {_MAX_SPLITS} panel splits"
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
    return math.fsum(item[3] for item in sorted(heap, key=lambda t: t[1]))


def _beta(alpha: float, beta: float) -> float:
    return math.exp(
        math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    )


def _check_x(x: Real) -> float:
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError(f"argument must be finite, got {x!r}")
    if xf < 0:
        raise NegativeDegree(f"argument must be non-negative, got {x!r}")
    return xf


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def li_zang(r: int, m: int, x: Real, tol: float = 1e-9) -> float:
    """Integral-form bound with neighborhood-degree parameter m.

    Evaluates (m/B) int_0^1 (1-t)^(a/m) / (t^b (m + (x-m)t)) dt with
    a = 1/(r-1)^2, b = (r-2)/(r-1) and normalizer B = Beta(1/(r-1), a/m)
    computed via log-Gamma.  The substitution t = u^(r-1) removes the
    t^-b endpoint singularity before quadrature.  At x = 0 the denominator
    reduces to m(1-t) and the integral cancels against B exactly, so
    1.0 is returned without quadrature.  A non-finite x raises
    ValueError, a negative one NegativeDegree.

    On success the estimated error is at most tol.  This is an estimate,
    not a bound on |result - true value| (see the module docstring).
    """
    _check_r(r)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    _check_tol(tol)
    xf = _check_x(x)
    if xf == 0.0:
        return 1.0
    rm1 = r - 1
    gamma = 1.0 / (rm1 * rm1 * m)  # exponent a/m
    bnorm = _beta(1.0 / rm1, gamma)
    k = xf - m

    def values(a: float, b: float) -> list[float]:
        return [
            num / (m + k * t)
            for num, t in zip(_panel_lz_num(rm1, gamma, a, b), _panel_t(rm1, a, b))
        ]

    integral = _adaptive_gl(values, tol * bnorm / m)
    return (m / bnorm) * integral


def chishti(r: int, x: Real, tol: float = 1e-9) -> float:
    """Integral-form bound 1/(r-1) int_0^1 (1-t) / (t^b (1 + ((r-1)x - 1)t)) dt.

    Same conventions as li_zang: t = u^(r-1) substitution (the 1/(r-1)
    prefactor then cancels), log-Gamma-free since no normalizer appears,
    and exact 1.0 at x = 0.

    On success the estimated error is at most tol.  This is an estimate,
    not a bound on |result - true value| (see the module docstring).
    """
    _check_r(r)
    _check_tol(tol)
    xf = _check_x(x)
    if xf == 0.0:
        return 1.0
    rm1 = r - 1
    coef = rm1 * xf - 1.0

    def values(a: float, b: float) -> list[float]:
        return [(1.0 - t) / (1.0 + coef * t) for t in _panel_t(rm1, a, b)]

    return _adaptive_gl(values, tol)


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


def chishti_bound(h: Hypergraph, r: int, tol: float = 1e-9) -> float:
    """n times the chishti value at the average degree.

    The estimated error is at most n * tol, an estimate as in chishti,
    not a bound.  Raises EmptyHypergraph for n = 0.
    """
    _check_r(r)
    if h.n == 0:
        raise EmptyHypergraph("bound needs at least one vertex")
    return h.n * chishti(r, h.average_degree(), tol)


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------


class TableRow(NamedTuple):
    """All four bounds at one degree: two quadrature floats, whose
    estimated error is at most the table's tol, and two exact Fractions."""

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
    tol: float = 1e-9,
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
            f_lz=li_zang(r, m, d, tol),
            f_czpi=chishti(r, d, tol),
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


def table_to_json(rows: list[TableRow], r: int, m: int, tol: float) -> str:
    """JSON table; exact columns as 'p/q' strings, quadrature columns as floats."""
    import json

    payload = {
        "r": r,
        "m": m,
        "tol": tol,
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
    return json.dumps(payload, separators=(", ", ": "))
