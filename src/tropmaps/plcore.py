"""Piecewise-linear maps with integer slopes on the tropical projective line.

A map is stored as (break_points, slopes, anchor_value): strictly
increasing rational break points, one slope per maximal linear segment
(one more slope than break points), and the value at the first break
point (at 0 for break-free maps).  Continuity holds by construction;
every other value is obtained by integrating the slopes from the anchor.
The values at the break points and the integer parts of the break points
are derived once per map, on first use.  Each later evaluation bisects the
integer parts as ints, compares Fractions only among the breaks that share
the argument's integer part, and builds one Fraction from numerators and
denominators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, mul, sub

from .errors import InputError
from .rational import (POS_INF, _bounded_echo, is_infinite, parse_exactly,
                       parse_extended, parse_rational)
from .record import Record
from .types_enum import _admissibility_reasons


def _parse_slope(s):
    # Integer slopes collapse to int; non-integer rationals are kept so
    # that validate() and the ReLU admissibility report can see them.
    if type(s) is int:
        return s
    s = parse_rational(s)
    return int(s) if s.denominator == 1 else s


def _anchor_point(breaks):
    """Where a map's anchor value is taken: its first break point, or 0."""
    return breaks[0] if breaks else 0


class TropicalMap(Record):
    break_points: tuple
    slopes: tuple
    anchor_value: Fraction

    def __init__(self, break_points, slopes, anchor_value):
        breaks = tuple(break_points)
        slopes = parse_exactly(slopes, len(breaks) + 1,
                               "slope count must be break count + 1", _parse_slope)
        super().__init__(tuple(map(parse_rational, breaks)), slopes,
                         parse_rational(anchor_value))

    @property
    def k(self):
        """Number of break points."""
        return len(self.break_points)

    @cached_property
    def break_point_values(self):
        """break_values(self) as a tuple, computed on first use and kept.

        It is stored in the instance __dict__, not as a field, so ==, hash
        and repr still see only the three fields.
        """
        return tuple(break_values(self))

    @cached_property
    def break_point_floors(self):
        """The integer part (floor) of each break point, computed on first
        use and kept in the instance __dict__ like break_point_values."""
        return tuple([x.numerator // x.denominator for x in self.break_points])


class TropicalPolynomial(Record):
    """Coefficients indexed by exponent; -inf marks an absent monomial."""
    coefficients: tuple

    def __init__(self, coefficients):
        coeffs = tuple(map(parse_extended, coefficients))
        if POS_INF in coeffs:
            raise ValueError("coefficients may be rational or -inf")
        if not coeffs or is_infinite(coeffs[-1]):
            raise ValueError("top coefficient must be finite")
        super().__init__(coeffs)


class RamificationProfile(Record):
    weights: tuple
    total: int


class ValidationReport(Record):
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class AdmissibilityReport(Record):
    admissible: bool
    reasons: tuple

    def __bool__(self):
        return self.admissible


def validate(m: TropicalMap) -> ValidationReport:
    """Report every structural defect of a map; never raises."""
    problems = []
    for s in m.slopes:
        if not isinstance(s, int):
            problems.append("non-integer slope: " + _bounded_echo(s))
    for a, b in zip(m.break_points, m.break_points[1:]):
        if a >= b:
            problems.append("break points not strictly increasing at " + _bounded_echo(b))
    for a, b in zip(m.slopes, m.slopes[1:]):
        if a == b:
            problems.append("zero jump at slope %s (break is not a kink)" % _bounded_echo(a))
    return ValidationReport(not problems, tuple(problems))


def break_values(m: TropicalMap):
    """Values of the map at its break points, derived from the anchor: a
    prefix sum of the steps s_j * (x_j - x_{j-1})."""
    xs = m.break_points
    steps = map(mul, m.slopes[1:], map(sub, xs[1:], xs))
    return list(accumulate(steps, initial=m.anchor_value)) if xs else []


def evaluate(m: TropicalMap, x):
    """Evaluate at an extended rational (parse_extended): a rational or +/-inf.

    Any other argument, a finite float or a bool included, raises InputError.
    A finite x is placed by bisecting the breaks' integer parts as ints; only
    the breaks that share x's integer part are compared as Fractions, so a map
    whose breaks all share one integer part costs a Fraction bisection over
    all of them.  x is read on the segment that ends at it or runs through it,
    so at the first break it is the anchor value and the break values are not
    derived.  The value is built as one Fraction from numerators and
    denominators.  On a map whose breaks are not increasing it is some
    segment's value, and never an error.
    """
    try:
        x = parse_extended(x)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if is_infinite(x):
        s = m.slopes[-1] if x > 0 else m.slopes[0]
        if s:
            return x if s > 0 else -x
        # A flat end: the value at the last break, or else the anchor value.
        return m.break_point_values[-1] if x > 0 and m.break_points else m.anchor_value
    breaks, floors = m.break_points, m.break_point_floors
    xn, xd = x.numerator, x.denominator
    f = xn // xd
    lo = bisect_left(floors, f)
    j = bisect_left(breaks, x, lo, bisect_right(floors, f, lo)) - 1
    if j < 0:   # the left ray, or a map with no breaks
        v, b, s = m.anchor_value, _anchor_point(breaks), m.slopes[0]
    else:
        v, b, s = m.break_point_values[j], breaks[j], m.slopes[j + 1]
    vn, vd, bn, bd = v.numerator, v.denominator, b.numerator, b.denominator
    sn, sd = s.numerator, s.denominator
    return Fraction(vn * xd * bd * sd + sn * (xn * bd - bn * xd) * vd, vd * xd * bd * sd)


def ramification(m: TropicalMap) -> RamificationProfile:
    weights = tuple(abs(b - a) for a, b in zip(m.slopes, m.slopes[1:]))
    return RamificationProfile(weights, sum(weights))


def is_admissible(m: TropicalMap, degree: int) -> AdmissibilityReport:
    """Degree-d admissibility of the slope sequence (end slopes d, all slopes
    >= 1, total ramification 2d-2); an invalid map reports its validation
    problems instead."""
    report = validate(m)
    reasons = (report.problems if not report
               else _admissibility_reasons(degree, m.slopes))
    return AdmissibilityReport(not reasons, tuple(reasons))


def apply_target_automorphism(m: TropicalMap, sign: int, shift) -> TropicalMap:
    """Post-compose with y -> sign*y + shift."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    shift = parse_rational(shift)
    return TropicalMap(m.break_points,
                       tuple(sign * s for s in m.slopes),
                       sign * m.anchor_value + shift)


def apply_source_automorphism(m: TropicalMap, sign: int, shift) -> TropicalMap:
    """Pre-compose with x -> sign*x + shift, i.e. return x -> phi(sign*x + shift)."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    shift = parse_rational(shift)
    # A break x moves to sign*(x - shift) and a slope s becomes sign*s; the
    # [::sign] slices reverse both lists under a reflection.
    breaks = tuple(sign * (x - shift) for x in m.break_points[::sign])
    slopes = tuple(sign * s for s in m.slopes[::sign])
    anchor = evaluate(m, sign * _anchor_point(breaks) + shift)
    return TropicalMap(breaks, slopes, anchor)


def maps_equal(a: TropicalMap, b: TropicalMap) -> bool:
    return a == b


def tropical_polynomial_evaluate(p: TropicalPolynomial, x):
    """max_i (a_i + i*x) over the finite coefficients."""
    x = parse_rational(x)
    return max(c + i * x for i, c in enumerate(p.coefficients)
               if not is_infinite(c))


def envelope(p: TropicalPolynomial) -> TropicalMap:
    """Upper envelope of the lines y = i*x + a_i as a piecewise-linear map.

    Terms that are never strictly maximal are dropped; coincident corner
    points merge.  Slopes of the result are the surviving exponents.
    """
    lines = [(i, c) for i, c in enumerate(p.coefficients) if not is_infinite(c)]
    hull = []       # (slope, intercept), slopes strictly increasing
    corners = []    # corner x between hull[j] and hull[j+1]
    for m_new, b_new in lines:
        while hull:
            m_top, b_top = hull[-1]
            # x from which the new line dominates the current top
            x_star = (b_top - b_new) / (m_new - m_top)
            if corners and x_star <= corners[-1]:
                hull.pop()
                corners.pop()
                continue
            corners.append(x_star)
            break
        hull.append((m_new, b_new))
    m0, b0 = hull[0]
    return TropicalMap(tuple(corners), tuple(m for m, _ in hull),
                       m0 * _anchor_point(corners) + b0)


def _kinks(m: TropicalMap):
    """m as (slope, intercept, kinks): m(x) = slope*x + intercept plus
    jump * max(0, x - t) for each kink (t, jump), kinks in break order."""
    s = m.slopes[0]
    return (s, m.anchor_value - s * _anchor_point(m.break_points),
            list(zip(m.break_points, map(sub, m.slopes[1:], m.slopes))))


def _merge_kinks(slope, kinks):
    """Breaks and slopes of slope*x plus kinks (t, jump) sorted by t: the
    jumps at one t add up, and a t whose jumps cancel is no break."""
    breaks, slopes = [], [slope]
    t = jump = None
    for x, j in kinks:
        if x == t:
            jump += j
            continue
        if jump:
            breaks.append(t)
            slopes.append(slopes[-1] + jump)
        t, jump = x, j
    if jump:
        breaks.append(t)
        slopes.append(slopes[-1] + jump)
    return breaks, slopes


def _from_kinks(slope, intercept, kinks):
    """The inverse of _kinks: the map slope*x + intercept plus the kinks
    (t, jump) in any order, sorted by t and merged by _merge_kinks."""
    breaks, slopes = _merge_kinks(slope, sorted(kinks, key=itemgetter(0)))
    return TropicalMap(breaks, slopes, slope * _anchor_point(breaks) + intercept)


def piecewise_difference(a: TropicalMap, b: TropicalMap) -> TropicalMap:
    """The function a - b in map form, rebuilt from the kinks of a and of -b."""
    sa, ca, kinks = _kinks(a)
    sb, cb, kb = _kinks(b)
    return _from_kinks(sa - sb, ca - cb, kinks + [(x, -j) for x, j in kb])


def tropicalize_rational(p: TropicalPolynomial, q: TropicalPolynomial) -> TropicalMap:
    """trop(p) - trop(q): difference of the two upper envelopes.

    The result is a valid TropicalMap but need not be admissible of any
    degree; callers classify separately.
    """
    return piecewise_difference(envelope(p), envelope(q))
