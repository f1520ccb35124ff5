"""Bridge between shallow scalar ReLU networks and tropical maps.

A network f(x) = w0*x + b0 + sum_j a_j * max(0, w_j*x + b_j) is a
continuous piecewise-linear function; its kinks sit at the activation
thresholds -b_j/w_j.  Conversion is exact: inputs are rationals, and
admissibility (integer slopes, exact threshold coincidences) is decided
without tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import moduli
from .plcore import TropicalMap, _from_kinks, _kinks, is_admissible
from .rational import parse_rational
from .record import Record
from .types_enum import _D3_LABELS, _is_palindrome


class ReLUNetwork(Record):
    base_slope: Fraction
    base_bias: Fraction
    units: tuple  # (weight, bias, out_coeff)

    def __init__(self, base_slope, base_bias, units):
        super().__init__(parse_rational(base_slope), parse_rational(base_bias),
                         tuple((parse_rational(w), parse_rational(b), parse_rational(a))
                               for w, b, a in units))

    def evaluate(self, x):
        x = parse_rational(x)
        y = self.base_slope * x + self.base_bias
        for w, b, a in self.units:
            y += a * max(Fraction(0), w * x + b)
        return y


class NetworkConversion(Record):
    map: TropicalMap
    admissible: bool
    problems: tuple


class DeadUnit(Record):
    index: int
    reason: str  # zero-coefficient | zero-weight | cancelled-threshold


class SymmetryReport(Record):
    dead_units: tuple
    admissible: bool
    problems: tuple
    type_label: str | None
    aut: str | None
    gap_condition: tuple | None  # (l1, l3, equal) for palindromic k=4 types


def _threshold(w, b):
    """The activation threshold -b/w of a unit with nonzero weight w, built
    from numerators and denominators: one gcd and no Fraction division."""
    return Fraction(-b.numerator * w.denominator, b.denominator * w.numerator)


def _sum(n, d, m, e):
    """n/d + m/e in lowest terms as (numerator, denominator), d and e positive."""
    n, d = n * e + m * d, d * e
    g = gcd(n, d)
    return n // g, d // g


def _folded_terms(net: ReLUNetwork):
    """Rewrite every unit as jump * max(0, x - threshold) plus an affine part.

    Uses max(0, u) = u + max(0, -u) to flip negative-weight units, and
    folds zero-weight units into the bias.  Returns (slope, bias, terms)
    with terms a list of (threshold, jump); jumps can be zero here (dead
    a_j = 0 units) and cancel later.  Jumps and thresholds are built from
    numerators and denominators, at most one gcd each, and an integral slope or
    jump is an int, so the merge adds ints.  The slope and the bias are summed
    as reduced int pairs and built once at the end.
    """
    sn, sd = net.base_slope.numerator, net.base_slope.denominator
    bn, bd = net.base_bias.numerator, net.base_bias.denominator
    terms = []
    for w, b, a in net.units:
        wn = w.numerator
        if wn < 0 or not wn and b > 0:  # the flip's a * b, or a * max(0, b)
            bn, bd = _sum(bn, bd, a.numerator * b.numerator, a.denominator * b.denominator)
        if not wn:
            continue
        jn, jd = a.numerator * wn, a.denominator * w.denominator
        if wn < 0:  # flipping (w, b) to (-w, -b) keeps the threshold
            sn, sd = _sum(sn, sd, jn, jd)
            jn = -jn
        terms.append((_threshold(w, b), jn // jd if jn % jd == 0 else Fraction(jn, jd)))
    return sn if sd == 1 else Fraction(sn, sd), Fraction(bn, bd), terms


def network_to_map(net: ReLUNetwork) -> NetworkConversion:
    """Exact conversion: a sort of the folded kinks by threshold, then one
    merge of equal thresholds that drops the ones whose jumps cancel."""
    m = _from_kinks(*_folded_terms(net))
    report = is_admissible(m, 3)
    return NetworkConversion(m, report.admissible, report.reasons)


def map_to_network(m: TropicalMap) -> ReLUNetwork:
    """Canonical network of a map: all hidden weights +1, one unit per break."""
    slope, intercept, kinks = _kinks(m)
    one = Fraction(1)   # every field a Fraction, as the parsing constructor makes it
    return ReLUNetwork._built(Fraction(slope), intercept,
                              tuple([(one, -x, Fraction(jump)) for x, jump in kinks]))


def symmetry_report(net: ReLUNetwork) -> SymmetryReport:
    """Dead units, combinatorial type, and the symmetry of the induced map."""
    conv = network_to_map(net)
    breaks = set(conv.map.break_points)
    dead = []
    for idx, (w, b, a) in enumerate(net.units):
        reason = ("zero-coefficient" if a == 0 else "zero-weight" if w == 0
                  else None if _threshold(w, b) in breaks else "cancelled-threshold")
        if reason:
            dead.append(DeadUnit(idx, reason))
    dead = tuple(dead)
    if not conv.admissible:
        return SymmetryReport(dead, False, conv.problems, None, None, None)
    point = moduli.moduli_point(conv.map)
    aut = moduli.automorphisms(point).kind
    gap_condition = None
    if _is_palindrome(point.seq.slopes) and point.seq.k == 4:
        gap_condition = (point.gaps[0], point.gaps[2], aut == moduli.Z2)
    return SymmetryReport(dead, True, (), _D3_LABELS[point.seq.slopes], aut, gap_condition)
