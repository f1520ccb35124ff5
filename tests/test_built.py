"""Values the package computes from parsed values skip the parse
(`Record._built`).  They must be what the parsing constructor makes of the
same fields: equal, and with equal reprs, so an integral slope is an int and
every network field a Fraction on both paths."""

import math
from fractions import Fraction

from hypothesis import example, given, strategies as st

from tropmaps import (ReLUNetwork, TropicalMap, TropicalPolynomial, map_to_network,
                      network_to_map, relu, tropicalize_rational)
from tropmaps.plcore import _parse_slope, envelope, piecewise_difference


def assert_as_parsed(value):
    """value equals, with an equal repr, its class's parsing constructor
    applied to its fields."""
    parsed = type(value)(*[getattr(value, name) for name in value._fields])
    assert value == parsed and repr(value) == repr(parsed)


def fraction_fold(net):
    """The fold as it was written on Fraction values: the slope and the bias
    are summed as Fractions, a jump is an int when integral, and the slope is
    normalised by _parse_slope.  The oracle of relu._folded_terms."""
    slope, bias = net.base_slope, net.base_bias
    terms = []
    for w, b, a in net.units:
        wn, wd = w.numerator, w.denominator
        if not wn:
            if b > 0:
                bias += a * b
            continue
        jn, jd = a.numerator * wn, a.denominator * wd
        jump = jn // jd if jn % jd == 0 else Fraction(jn, jd)
        if wn < 0:
            slope += jump
            bias += a * b
            jump = -jump
        terms.append((-b / w, jump))
    return _parse_slope(slope), bias, terms


# zero among them, integers, and non-integers whose sums can be integers
VALUES = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
UNITS = st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=10)
# zero-weight units with b > 0 and b < 0, a zero coefficient, a negative
# weight, and Fraction jumps 1/2 and -7/2 whose running sum is the slope -3
TRAP_UNITS = [(0, 2, 3), (0, -2, 3), (2, 1, 0), (-3, 1, Fraction(1, 2)),
              (1, 0, Fraction(1, 2)), (1, -1, Fraction(-7, 2))]


@given(UNITS, VALUES, VALUES)
@example(TRAP_UNITS, 0, Fraction(1, 3))
@example([(1, 0, Fraction(1, 2)), (2, 0, Fraction(1, 4))], Fraction(-1, 2), 0)
def test_network_conversions_build_what_the_parse_builds(units, slope, bias):
    net = ReLUNetwork(slope, bias, units)
    assert repr(relu._folded_terms(net)) == repr(fraction_fold(net))
    m = network_to_map(net).map
    assert_as_parsed(m)
    assert_as_parsed(map_to_network(m))


@st.composite
def maps(draw):
    """Ordered maps with up to 10 breaks, Fraction slopes among them."""
    breaks = sorted(draw(st.lists(VALUES, unique=True, max_size=10)))
    slopes = draw(st.lists(VALUES, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    return TropicalMap(breaks, slopes, draw(VALUES))


@given(maps(), maps())
def test_map_conversions_build_what_the_parse_builds(a, b):
    assert_as_parsed(map_to_network(a))
    assert_as_parsed(piecewise_difference(a, b))


POLYNOMIALS = st.builds(
    lambda coefficients, top: TropicalPolynomial(coefficients + [top]),
    st.lists(st.just(-math.inf) | VALUES, max_size=8), VALUES)


@given(POLYNOMIALS, POLYNOMIALS)
@example(TropicalPolynomial((0, -math.inf, -math.inf, 0)), TropicalPolynomial((0,)))
@example(TropicalPolynomial((0, 0, 0, 0)), TropicalPolynomial((Fraction(1, 2), 0)))
def test_envelopes_build_what_the_parse_builds(p, q):
    assert_as_parsed(envelope(p))
    assert_as_parsed(tropicalize_rational(p, q))
