import json
import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmaps import (TropicalMap, TropicalPolynomial, apply_source_automorphism,
                      apply_target_automorphism, evaluate,
                      is_admissible, map_to_network, maps_equal, ramification,
                      tropical_polynomial_evaluate, tropicalize_rational,
                      validate)
from tropmaps import plcore
from tropmaps.errors import InputError
from tropmaps.plcore import break_values
from conftest import call, example_formula

NEG_INF = -math.inf

RATIONALS = st.fractions(min_value=-100, max_value=100, max_denominator=12)


@st.composite
def valid_maps(draw):
    """Valid maps with up to 40 breaks: any integer start slope, nonzero jumps."""
    breaks = sorted(draw(st.lists(RATIONALS, unique=True, max_size=40)))
    jumps = draw(st.lists(st.integers(-5, 5).filter(bool),
                          min_size=len(breaks), max_size=len(breaks)))
    slopes = [draw(st.integers(-5, 5))]
    for j in jumps:
        slopes.append(slopes[-1] + j)
    return TropicalMap(tuple(breaks), tuple(slopes), draw(RATIONALS))


@st.composite
def kernel_maps(draw):
    """Ordered maps with up to 12 breaks and any slopes, non-integer Fractions
    included: evaluate's kernel makes no use of validity."""
    breaks = sorted(draw(st.lists(RATIONALS, unique=True, max_size=12)))
    slope = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)
    slopes = draw(st.lists(slope, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    return TropicalMap(tuple(breaks), tuple(slopes), draw(RATIONALS))


def segment_walk(m, x):
    """m(x) by walking the segments from the anchor in Fraction arithmetic."""
    breaks, slopes = m.break_points, m.slopes
    if not breaks or x <= breaks[0]:
        return m.anchor_value + slopes[0] * (x - (breaks[0] if breaks else 0))
    value = m.anchor_value
    for a, b, s in zip(breaks, breaks[1:], slopes[1:]):
        if x <= b:
            return value + s * (x - a)
        value += s * (b - a)
    return value + slopes[-1] * (x - breaks[-1])


class TestEvaluate:
    @pytest.mark.parametrize("x,expected", [(2, 9), (-1, -3), (5, 21)])
    def test_example_values(self, example_map, x, expected):
        assert evaluate(example_map, x) == expected

    def test_matches_piecewise_formula_on_grid(self, example_map):
        xs = [Fraction(n, 4) for n in range(-20, 40)]
        for x in xs:
            assert evaluate(example_map, x) == example_formula(x)

    def test_infinite_arguments(self, example_map):
        assert evaluate(example_map, math.inf) == math.inf
        assert evaluate(example_map, -math.inf) == -math.inf

    def test_infinity_strings_are_the_float_infinities(self, example_map):
        for m in (example_map, TropicalMap((0, 1), (0, 7, 0), 2)):
            for text, x in (("inf", math.inf), ("-inf", -math.inf)):
                assert evaluate(m, text) == evaluate(m, x)

    @pytest.mark.parametrize("first", range(-2, 3))
    @pytest.mark.parametrize("last", range(-2, 3))
    def test_infinite_arguments_by_end_slope(self, first, last):
        # oracle: a sloped end runs off to the infinity of its sign, a flat
        # end keeps the value it has far out
        far = 10**6
        for m in (TropicalMap((0, 1), (first, 7, last), 2),
                  TropicalMap((), (first,), 2)):
            for x, s in ((math.inf, m.slopes[-1]), (-math.inf, -m.slopes[0])):
                got = evaluate(m, x)
                expected = (math.copysign(math.inf, s) if s
                            else evaluate(m, far if x > 0 else -far))
                assert got == expected and type(got) is type(expected)

    def test_break_free_map(self):
        m = TropicalMap((), (3,), Fraction(7))
        assert evaluate(m, 0) == 7
        assert evaluate(m, Fraction(1, 3)) == 8

    def test_continuity_at_breaks(self, example_map):
        # left and right segment formulas agree at every break point
        eps = Fraction(1, 10**9)
        for x in example_map.break_points:
            left = evaluate(example_map, x - eps)
            right = evaluate(example_map, x + eps)
            v = evaluate(example_map, x)
            assert abs(left - v) <= 5 * eps and abs(right - v) <= 5 * eps

    @pytest.mark.parametrize("x", [0.5, True, "1/0"])
    def test_rejects_non_exact_arguments(self, example_map, x):
        with pytest.raises(InputError):
            evaluate(example_map, x)

    @given(m=valid_maps(), x=RATIONALS, c=RATIONALS)
    # explicit cases of the floor bisection, so a wrong one fails without
    # minutes of shrinking 40-break maps: breaks that share one integer part
    @example(TropicalMap((Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)),
                         (3, 4, 5, 4, 3), Fraction(1, 7)), Fraction(2, 5), Fraction(1, 3))
    # x on a break
    @example(TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0), 3, Fraction(1, 2))
    # x just left of the first break, in its unit interval
    @example(TropicalMap((Fraction(5, 2), 3), (1, 2, -1), 2), Fraction(7, 3), Fraction(1, 12))
    # negative non-integral x and break: the integer part rounds toward -inf
    @example(TropicalMap((Fraction(-1, 4),), (2, -3), 1), Fraction(-1, 2), Fraction(1, 2))
    def test_against_relu_oracle(self, m, x, c):
        assert validate(m).ok
        net = map_to_network(m)
        value = evaluate(m, x)
        assert value == net.evaluate(x)
        # a second evaluation, served from the map's cached break values,
        # agrees with a freshly built equal map
        assert evaluate(m, x) == value
        assert evaluate(TropicalMap(m.break_points, m.slopes, m.anchor_value), x) == value
        assert evaluate(apply_source_automorphism(m, 1, c), x) == net.evaluate(x + c)
        assert evaluate(apply_source_automorphism(m, -1, c), x) == net.evaluate(c - x)
        if m.break_points:  # at the last break and past it, where the bisection ends
            last = m.break_points[-1]
            for y in (last, last + abs(c)):
                assert evaluate(m, y) == net.evaluate(y)

    @given(m=kernel_maps(), x=RATIONALS)
    # all breaks in one unit interval
    @example(TropicalMap((Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)),
                         (1, 3, -2, 4, 0), Fraction(1, 7)), Fraction(2, 5))
    # negative non-integral x and break: the integer part rounds toward -inf
    @example(TropicalMap((Fraction(-1, 4),), (2, -3), 1), Fraction(-1, 8))
    # an integer x equal to a break's integer part, left of that break
    @example(TropicalMap((2, Fraction(5, 2)), (1, -1, 3), 0), 2)
    # no breaks
    @example(TropicalMap((), (Fraction(3, 2),), Fraction(1, 3)), Fraction(-7, 3))
    # a non-integer slope; x just right of the first break reads its segment
    @example(TropicalMap((Fraction(-3, 2), 0, Fraction(7, 3)),
                         (Fraction(1, 2), Fraction(-4, 3), 2, Fraction(5, 3)),
                         Fraction(-2, 5)), Fraction(-7, 5))
    def test_integer_kernel_against_a_segment_walk(self, m, x):
        # at x, at each break, at each break's integer part, and just left of
        # the first break
        points = [x, *m.break_points, *(math.floor(b) for b in m.break_points)]
        if m.break_points:
            points.append(m.break_points[0] - Fraction(1, 10**9))
        for y in points:
            got = evaluate(m, y)
            assert got == segment_walk(m, y) and type(got) is Fraction

    def test_distinct_integer_parts_cost_one_comparison(self, spy):
        # one break in each unit interval [i, i+1): x's integer part finds it
        m = TropicalMap(tuple(i + Fraction(1, 3) for i in range(-1000, 1000)),
                        tuple(3 + i % 2 for i in range(2001)), Fraction(1, 7))
        evaluate(m, 0)   # the break values and integer parts, outside the count
        counted = [spy(Fraction, name) for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")]
        made = []
        for n in range(-4010, 4010, 7):   # x = n/4, with and without a break in its interval
            evaluate(m, Fraction(n, 4))
            made.append(sum(map(len, counted)))
            for calls in counted:
                calls.clear()
        assert max(made) == 1

    @given(breaks=st.lists(RATIONALS, max_size=7),
           slopes=st.lists(st.integers(-5, 5), max_size=7))
    @example(breaks=[0, 1, 2], slopes=[3, 4])
    def test_a_map_is_built_well_counted_or_not_at_all(self, breaks, slopes):
        # breaks in any order and slopes of any count: a miscounted map is
        # refused on construction, and any map that is built evaluates
        try:
            m = TropicalMap(breaks, slopes, 0)
        except ValueError as exc:
            assert str(exc) == "slope count must be break count + 1"
            assert len(slopes) != len(breaks) + 1
            return
        mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
        for x in (math.inf, NEG_INF, *breaks, *mids):
            evaluate(m, x)


class TestBreakValueCache:
    @staticmethod
    def big_map():
        breaks = tuple(Fraction(i, 3) for i in range(2000))
        slopes = tuple(3 + i % 2 for i in range(2001))
        return TropicalMap(breaks, slopes, Fraction(1, 7))

    def test_prefix_pass_runs_once_on_first_use(self, spy):
        real = plcore.break_values
        calls = spy(plcore, "break_values")
        m = self.big_map()
        assert calls == []  # built, not yet evaluated: nothing computed
        evaluate(m, m.break_points[0] - 1)
        evaluate(m, m.break_points[0])
        assert calls == []  # up to the first break the anchor serves
        xs = m.break_points[::20]
        got = [evaluate(m, x) for x in xs]
        assert len(calls) == 1
        assert got == real(m)[::20]

    def test_floor_index_is_built_once_on_first_use(self, spy):
        calls = spy(TropicalMap.__dict__["break_point_floors"], "func")
        m = self.big_map()
        assert calls == []
        for x in m.break_points[::20]:
            evaluate(m, x)
        assert len(calls) == 1
        assert m.break_point_floors == tuple(math.floor(b) for b in m.break_points)

    def test_cache_is_invisible(self):
        m = self.big_map()
        fresh = TropicalMap(m.break_points, m.slopes, m.anchor_value)
        seen = (hash(m), repr(m))
        evaluate(m, 5)
        assert {"break_point_values", "break_point_floors"} <= set(vars(m))
        assert m == fresh and fresh == m
        assert (hash(m), repr(m)) == seen == (hash(fresh), repr(fresh))
        assert m._fields == ("break_points", "slopes", "anchor_value")

    def test_replace_evaluates_from_new_anchor(self):
        m = TropicalMap((0, 1), (0, 1, 0), 2)
        assert evaluate(m, math.inf) == 3
        moved = TropicalMap(m.break_points, m.slopes, 5)
        assert evaluate(moved, -math.inf) == 5 and evaluate(moved, math.inf) == 6
        assert evaluate(moved, Fraction(1, 2)) == Fraction(11, 2)
        assert apply_source_automorphism(moved, -1, 0).anchor_value == 6


class TestValidate:
    def test_example_valid(self, example_map):
        assert validate(example_map).ok

    def test_non_strict_breaks(self):
        r = validate(TropicalMap((0, 0), (3, 4, 3), 0))
        assert not r.ok and any("increasing" in p for p in r.problems)

    def test_zero_jump(self):
        r = validate(TropicalMap((0,), (3, 3), 0))
        assert not r.ok and any("jump" in p for p in r.problems)

    def test_length_mismatch(self):
        # a miscounted map is refused on construction, so validate never sees one
        with pytest.raises(ValueError) as info:
            TropicalMap((0,), (3,), 0)
        assert str(info.value) == "slope count must be break count + 1"

    def test_non_integer_slope(self):
        r = validate(TropicalMap((0,), (3, Fraction(7, 2)), 0))
        assert not r.ok and any("non-integer" in p for p in r.problems)

    def test_slope_past_the_digit_limit_is_reported(self):
        n = int("9" * 4000)
        r = validate(TropicalMap((0,), (0, Fraction(n * n, 7)), 0))
        assert r.problems == ("non-integer slope: a number of 8000 digits",)

    def test_bool_slope(self):
        with pytest.raises(ValueError, match="booleans"):
            TropicalMap((), (True,), 0)

    def test_json_true_slope_is_invalid_input(self):
        code, out, err = call(["classify", "-", "--json"],
                              {"breaks": [], "slopes": [True], "anchor": "0"})
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input",
                                   "detail": "booleans are not rationals"}

    @pytest.mark.parametrize("slope", [3, Fraction(3, 1), "3"], ids=["int", "fraction", "text"])
    def test_integer_slopes_are_ints(self, slope):
        (s,) = TropicalMap((), (slope,), 0).slopes
        assert type(s) is int and s == 3

    def test_non_integer_slope_stays_a_fraction(self):
        m = TropicalMap((0,), (3, "10/3"), 0)
        assert m.slopes == (3, Fraction(10, 3)) and type(m.slopes[1]) is Fraction
        code, out, _ = call(["classify", "-", "--json"],
                            {"breaks": ["0"], "slopes": [3, "10/3"], "anchor": "0"})
        payload = json.loads(out)
        assert code == 0 and payload["problems"] == ["non-integer slope: 10/3"]

    @pytest.mark.parametrize("fields", [((0.5,), (3, 4), 0),
                                        ((0,), (3, 4), 0.25),
                                        ((0,), (3, 4.0), 0),
                                        ((0,), (3, 4), "1e3")])
    def test_rejects_non_exact_fields(self, fields):
        with pytest.raises(ValueError, match="not a rational"):
            TropicalMap(*fields)


class TestRamification:
    def test_example(self, example_map):
        prof = ramification(example_map)
        assert prof.weights == (1, 1, 1, 1) and prof.total == 4

    def test_double_weights(self):
        prof = ramification(TropicalMap((0, 1), (3, 5, 3), 0))
        assert prof.weights == (2, 2) and prof.total == 4

    def test_break_free(self):
        prof = ramification(TropicalMap((), (3,), 0))
        assert prof.weights == () and prof.total == 0


class TestAdmissibility:
    def test_example_admissible(self, example_map):
        assert is_admissible(example_map, 3)

    def test_zero_end_slope(self):
        r = is_admissible(TropicalMap((0,), (0, 3), 0), 3)
        assert not r and any("end slopes" in s for s in r.reasons)

    def test_wrong_variation(self):
        r = is_admissible(TropicalMap((0, 1), (3, 4, 3), 0), 3)
        assert not r and any("ramification" in s for s in r.reasons)


class TestCriticalValues:
    def test_example(self, example_map):
        assert break_values(example_map) == [0, 4, 14, 18]

    def test_two_breaks(self):
        assert break_values(TropicalMap((0, 1), (3, 5, 3), 0)) == [0, 5]

    def test_break_free(self):
        assert break_values(TropicalMap((), (3,), 0)) == []


class TestAutomorphismActions:
    def test_target_translation(self, example_map):
        m = apply_target_automorphism(example_map, 1, 5)
        assert m.break_points == example_map.break_points
        assert m.slopes == example_map.slopes
        assert m.anchor_value == 5

    def test_target_flip(self, example_map):
        m = apply_target_automorphism(example_map, -1, 0)
        assert m.slopes == (-3, -4, -5, -4, -3) and m.anchor_value == 0

    def test_target_identity(self, example_map):
        assert maps_equal(apply_target_automorphism(example_map, 1, 0),
                          example_map)

    def test_source_shift(self, example_map):
        m = apply_source_automorphism(example_map, 1, -4)
        assert m.break_points == (4, 5, 7, 8)
        assert m.slopes == example_map.slopes and m.anchor_value == 0

    def test_source_reflection(self, example_map):
        m = apply_source_automorphism(example_map, -1, 0)
        assert m.break_points == (-4, -3, -1, 0)
        assert m.slopes == (-3, -4, -5, -4, -3)
        assert m.anchor_value == 18
        # pointwise: new map at x equals old map at -x
        for x in [-5, Fraction(-7, 2), -2, 0, 1]:
            assert evaluate(m, x) == evaluate(example_map, -x)

    def test_source_identity(self, example_map):
        assert maps_equal(apply_source_automorphism(example_map, 1, 0),
                          example_map)

    @pytest.mark.parametrize("act", [apply_target_automorphism, apply_source_automorphism])
    def test_sign_zero_rejected(self, example_map, act):
        for sign in (0, 1.0, -1.0, True):
            with pytest.raises(ValueError, match="sign must be"):
                act(example_map, sign, 1)

    @given(a=st.fractions(max_denominator=20))
    def test_reflection_involution(self, a):
        m = TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)
        twice = apply_source_automorphism(
            apply_source_automorphism(m, -1, a), -1, a)
        assert maps_equal(twice, m)

    def test_ramification_total_invariant(self, example_map):
        total = ramification(example_map).total
        assert ramification(apply_target_automorphism(example_map, -1, 3)).total == total
        assert ramification(apply_source_automorphism(example_map, -1, 7)).total == total


class TestSegmentSlopeProperty:
    @given(x=st.fractions(max_denominator=10),
           d=st.fractions(min_value=Fraction(1, 10), max_value=1,
                          max_denominator=10))
    def test_difference_quotient_is_segment_slope(self, x, d):
        # The slope on a segment as piecewise_difference reports it: of m
        # alone (minus zero), and of m - n, where the break at 1 cancels (both
        # jump +1), the one at 3 is shared with unequal jumps, and 1/2 is n's.
        m = TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)
        n = TropicalMap((Fraction(1, 2), 1, 3), (1, -2, -1, 2), 5)
        zero = TropicalMap((), (0,), 0)
        y = x + d
        for f, g in ((m, zero), (m, n)):
            if any(x < b < y for b in f.break_points + g.break_points):
                continue  # a kink separates the sample points
            diff = plcore.piecewise_difference(f, g)
            s = (evaluate(f, y) - evaluate(g, y) - evaluate(f, x) + evaluate(g, x)) / d
            assert s == diff.slopes[bisect_right(diff.break_points, x)]


@st.composite
def map_pairs(draw):
    """Two valid maps whose breaks come from one pool of up to 8 points, so
    they share breaks; at a shared break b's jump is often a's, so the kink
    cancels in a - b."""
    pool = sorted(draw(st.lists(RATIONALS, unique=True, max_size=8)))
    jumps = st.integers(-3, 3).filter(bool)
    a_jumps = {x: draw(jumps) for x in pool if draw(st.booleans())}
    b_jumps = {x: a_jumps[x] if x in a_jumps and draw(st.booleans()) else draw(jumps)
               for x in pool if draw(st.booleans())}
    maps = []
    for kinks in (a_jumps, b_jumps):
        slopes = [draw(st.integers(-3, 3))]
        for x in sorted(kinks):
            slopes.append(slopes[-1] + kinks[x])
        maps.append(TropicalMap(tuple(sorted(kinks)), tuple(slopes), draw(RATIONALS)))
    return maps


class TestPiecewiseDifference:
    @settings(max_examples=30)
    @given(pair=map_pairs())
    def test_pointwise_difference(self, pair):
        a, b = pair
        diff = plcore.piecewise_difference(a, b)
        assert validate(diff).ok
        xs = sorted(set(a.break_points + b.break_points)) or [Fraction(0)]
        assert set(diff.break_points) <= set(xs)
        samples = [xs[0] - 1, *xs, *((x + y) / 2 for x, y in zip(xs, xs[1:])), xs[-1] + 1]
        for x in samples:
            assert evaluate(diff, x) == evaluate(a, x) - evaluate(b, x)

    @settings(max_examples=10)
    @given(m=valid_maps())
    def test_self_difference_is_the_zero_map(self, m):
        assert plcore.piecewise_difference(m, m) == TropicalMap((), (0,), 0)


class TestTropicalPolynomial:
    def test_all_equal_coefficients(self):
        p = TropicalPolynomial((0, 0, 0, 0))
        assert tropical_polynomial_evaluate(p, -1) == 0
        assert tropical_polynomial_evaluate(p, 2) == 6

    def test_single_monomial(self):
        p = TropicalPolynomial((NEG_INF, NEG_INF, NEG_INF, 0))
        for x in [-3, 0, Fraction(5, 2)]:
            assert tropical_polynomial_evaluate(p, x) == 3 * Fraction(x)

    def test_all_bottom_rejected(self):
        for coeffs in ((NEG_INF, NEG_INF), ()):
            with pytest.raises(ValueError, match="top coefficient must be finite"):
                TropicalPolynomial(coeffs)

    def test_positive_infinity_rejected(self):
        for coeffs in ((0, math.inf, 1), (0, 1, math.inf), ("0", "inf", "1")):
            with pytest.raises(ValueError, match="rational or -inf"):
                TropicalPolynomial(coeffs)

    def test_infinity_strings_are_the_float_infinities(self):
        assert TropicalPolynomial(("-inf", "0")) == TropicalPolynomial((NEG_INF, 0))
        with pytest.raises(ValueError, match="top coefficient must be finite"):
            TropicalPolynomial(("0", "-inf"))


class TestTropicalize:
    def _oracle(self, p, q, x):
        return (tropical_polynomial_evaluate(p, x)
                - tropical_polynomial_evaluate(q, x))

    @pytest.mark.parametrize("coeffs", [(0, 0, 0, 0),
                                        (NEG_INF, NEG_INF, NEG_INF, 0),
                                        (0, 0)])
    def test_against_pointwise_oracle(self, coeffs):
        p = TropicalPolynomial(coeffs)
        q = TropicalPolynomial((0,))
        m = tropicalize_rational(p, q)
        for n in range(-30, 30):
            x = Fraction(n, 3)
            assert evaluate(m, x) == self._oracle(p, q, x)

    def test_cubic_envelope(self):
        m = tropicalize_rational(TropicalPolynomial((0, 0, 0, 0)),
                                 TropicalPolynomial((0,)))
        assert m.break_points == (0,) and m.slopes == (0, 3) and m.anchor_value == 0

    def test_lines_through_one_point_make_one_corner(self):
        # the envelope itself, not only the difference that merges corners
        assert plcore.envelope(TropicalPolynomial(("0", "0", "0"))) == TropicalMap((0,), (0, 2), 0)

    def test_sparse_cubic(self):
        m = tropicalize_rational(TropicalPolynomial((0, NEG_INF, NEG_INF, 0)),
                                 TropicalPolynomial((0,)))
        assert m.break_points == (0,) and m.slopes == (0, 3) and m.anchor_value == 0

    def test_linear(self):
        m = tropicalize_rational(TropicalPolynomial((0, 0)),
                                 TropicalPolynomial((0,)))
        assert m.break_points == (0,) and m.slopes == (0, 1) and m.anchor_value == 0

    def test_constant_denominator_is_shift(self):
        p = TropicalPolynomial((1, Fraction(1, 2), 0, 0))
        shifted = tropicalize_rational(p, TropicalPolynomial((Fraction(5),)))
        plain = tropicalize_rational(p, TropicalPolynomial((0,)))
        assert shifted.break_points == plain.break_points
        assert shifted.slopes == plain.slopes
        assert shifted.anchor_value == plain.anchor_value - 5

    def test_nontrivial_denominator(self):
        p = TropicalPolynomial((0, 0, 0, 0))
        q = TropicalPolynomial((0, 0))
        m = tropicalize_rational(p, q)
        for n in range(-20, 20):
            x = Fraction(n, 2)
            assert evaluate(m, x) == self._oracle(p, q, x)

    @given(st.data())
    def test_against_pointwise_oracle_with_absent_monomials(self, data):
        # Small integer coefficients make corners of p and q coincide often.
        # A shifted prefix of p as q shares corners of p with equal jumps, and
        # its tropical square (exponents doubled) shares them with doubled jumps.
        coeff = st.one_of(st.just(NEG_INF), st.integers(-6, 6), RATIONALS)
        p, q = [tuple(data.draw(st.lists(coeff, max_size=7)))
                + (data.draw(st.integers(-6, 6)),) for _ in range(2)]
        variant = data.draw(st.sampled_from(["independent", "prefix", "square"]))
        if variant != "independent":
            cut = data.draw(st.sampled_from(
                [i for i, c in enumerate(p) if not math.isinf(c)]))
            shift = data.draw(st.integers(-2, 2))
            q = tuple(c + shift for c in p[:cut + 1])
            if variant == "square":
                q = tuple(x for c in q for x in (NEG_INF, 2 * c))[1:]
        p, q = TropicalPolynomial(p), TropicalPolynomial(q)
        m = tropicalize_rational(p, q)
        # Every kink of either envelope is where two of its lines meet.
        xs = {Fraction(c2 - c1, i1 - i2)
              for poly in (p, q)
              for i1, c1 in enumerate(poly.coefficients)
              for i2, c2 in enumerate(poly.coefficients[:i1])
              if not (math.isinf(c1) or math.isinf(c2))}
        xs = sorted(xs | set(m.break_points)) or [Fraction(0)]
        xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[0] - 1, xs[-1] + 1]
        for x in xs:
            assert evaluate(m, x) == self._oracle(p, q, x)
        assert validate(m)
