import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from tropmaps import relu
from tropmaps import (ReLUNetwork, TropicalMap, evaluate, maps_equal,
                      map_to_network, network_to_map, registry_d3,
                      registry_sequence, symmetry_report)
from tropmaps.moduli import ModuliPoint, automorphisms, representative_map
from conftest import call, random_fraction

EXAMPLE_UNITS = ((1, 0, 1), (1, -1, 1), (1, -3, -1), (1, -4, -1))


def example_network():
    return ReLUNetwork(3, 0, EXAMPLE_UNITS)


THRESHOLDS = st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(0),
                               Fraction(2, 3), Fraction(5)])
SMALL = st.integers(-3, 3)


@st.composite
def networks(draw):
    """Networks whose units share a few thresholds: zero and negative
    weights, zero coefficients, and units added to cancel another's jump."""
    units = []
    for _ in range(draw(st.integers(0, 12))):
        theta, w, a = draw(THRESHOLDS), draw(SMALL), draw(SMALL)
        b = -theta * w if w else draw(SMALL)
        units.append((w, b, a))
        if w and draw(st.booleans()):
            w2 = draw(SMALL.filter(bool))
            units.append((w2, -theta * w2, Fraction(-a * abs(w), abs(w2))))
    units = draw(st.permutations(units))
    return ReLUNetwork(draw(SMALL), draw(SMALL), tuple(units))


GAPS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@st.composite
def palindromic_points(draw):
    """Points of the palindromic four-break types I, II, IV and V whose
    last gap repeats the first one half of the time."""
    l1, l2 = draw(GAPS), draw(GAPS)
    l3 = l1 if draw(st.booleans()) else draw(GAPS)
    seq = registry_sequence(draw(st.sampled_from(["I", "II", "IV", "V"])))
    return ModuliPoint(seq, (l1, l2, l3), draw(st.fractions(max_denominator=4)))


class TestNetworkToMap:
    @given(net=networks())
    def test_against_network_evaluation(self, net):
        m = network_to_map(net).map
        xs = sorted({-b / w for w, b, _ in net.units if w}) or [Fraction(0)]
        xs += [(x + y) / 2 for x, y in zip(xs, xs[1:])] + [xs[0] - 1, xs[-1] + 1]
        for x in xs:
            assert evaluate(m, x) == net.evaluate(x)
        assert all(a < b for a, b in zip(m.break_points, m.break_points[1:]))
        assert 0 not in (b - a for a, b in zip(m.slopes, m.slopes[1:]))

    def test_example_network(self, example_map):
        conv = network_to_map(example_network())
        assert maps_equal(conv.map, example_map)
        assert conv.admissible

    def test_agrees_with_direct_evaluation(self):
        rng = random.Random(31)
        net = ReLUNetwork(Fraction(3), Fraction(1, 2),
                          ((2, -3, 1), (-1, 2, 2), (0, 5, 3), (1, 0, -2)))
        conv = network_to_map(net)
        for _ in range(200):
            x = random_fraction(rng, -40, 40)
            assert evaluate(conv.map, x) == net.evaluate(x)
        for x in list(conv.map.break_points):
            assert evaluate(conv.map, x) == net.evaluate(x)

    def test_coincident_thresholds_merge(self):
        conv = network_to_map(ReLUNetwork(3, 0, ((1, 0, 1), (1, 0, 1))))
        assert conv.map.break_points == (0,)
        assert conv.map.slopes == (3, 5)
        assert not conv.admissible
        assert any("end slopes" in p for p in conv.problems)

    def test_cancelling_thresholds(self):
        conv = network_to_map(ReLUNetwork(3, 0, ((1, 0, 1), (1, 0, -1))))
        assert conv.map.break_points == () and conv.map.slopes == (3,)
        assert not conv.admissible
        assert any("ramification" in p for p in conv.problems)

    def test_negative_weight_unit_folds(self):
        # a*max(0, -x+1) has a kink at 1 with jump +a seen left-to-right... the
        # fold keeps exact pointwise agreement, checked densely
        net = ReLUNetwork(3, 0, ((-2, 2, 1),))
        conv = network_to_map(net)
        for n in range(-12, 12):
            x = Fraction(n, 3)
            assert evaluate(conv.map, x) == net.evaluate(x)

    def test_non_integer_slopes_flagged(self):
        conv = network_to_map(ReLUNetwork(Fraction(5, 2), 0, ()))
        assert not conv.admissible
        assert any("non-integer" in p for p in conv.problems)


def fraction_fold(net):
    """The reference fold, written on Fraction values: the jump a*w, the
    threshold -b/w, and a*max(0, b) for a zero-weight unit."""
    slope, bias = net.base_slope, net.base_bias
    terms = []
    for w, b, a in net.units:
        if not w:
            bias += a * max(Fraction(0), b)
            continue
        jump = a * w
        if w < 0:
            slope += jump
            bias += a * b
            jump = -jump
        terms.append((-b / w, jump))
    return slope, bias, terms


# small rationals, zero among them, with integer and non-integer products
FOLD_VALUES = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


def random_network(rng):
    """The JSON of a network of up to eight units drawn from small rationals."""
    def value():
        return "%d/%d" % (rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
    units = [{"w": value(), "b": value(), "a": value()} for _ in range(rng.randint(0, 8))]
    return {"base_slope": str(rng.randint(-3, 3)), "base_bias": value(), "units": units}


class TestIntegerFold:
    @given(st.lists(st.tuples(FOLD_VALUES, FOLD_VALUES, FOLD_VALUES), max_size=10),
           FOLD_VALUES, FOLD_VALUES)
    # zero weights with b > 0 and b < 0, a zero coefficient, non-integral
    # jumps with a negative and a positive weight
    @example([(0, 2, 3), (0, -2, 3), (2, 1, 0), (-3, 1, Fraction(1, 2)),
              (Fraction(1, 3), -1, 1)], Fraction(1, 2), 0)
    def test_equals_the_fraction_fold(self, units, slope, bias):
        net = ReLUNetwork(slope, bias, units)
        assert relu._folded_terms(net) == fraction_fold(net)

    def test_from_relu_writes_what_the_fraction_fold_gives(self, monkeypatch, spy):
        nets = [random_network(random.Random(seed)) for seed in range(1000)]
        written = [call(["from-relu", "-", "--json"], net) for net in nets]
        monkeypatch.setattr(relu, "_folded_terms", fraction_fold)
        folds = spy(relu, "_folded_terms")
        assert [call(["from-relu", "-", "--json"], net) for net in nets] == written
        assert len(folds) == 1000


class TestMapToNetwork:
    def test_example_map(self, example_map):
        net = map_to_network(example_map)
        assert net.base_slope == 3 and net.base_bias == 0
        assert net.units == ((1, 0, 1), (1, -1, 1), (1, -3, -1), (1, -4, -1))

    def test_break_free(self):
        net = map_to_network(TropicalMap((), (3,), 0))
        assert net.base_slope == 3 and net.base_bias == 0 and net.units == ()

    def test_roundtrip_all_types_random_gaps(self):
        rng = random.Random(37)
        for t in registry_d3():
            seq = t.representative
            for _ in range(25):
                gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
                m = representative_map(
                    ModuliPoint(seq, gaps, random_fraction(rng, -20, 20)))
                assert maps_equal(network_to_map(map_to_network(m)).map, m)

    @given(anchor=st.fractions(max_denominator=30),
           pos=st.fractions(max_denominator=30))
    def test_roundtrip_property(self, anchor, pos):
        m = TropicalMap((pos, pos + 1, pos + 3, pos + 4),
                        (3, 4, 5, 4, 3), anchor)
        assert maps_equal(network_to_map(map_to_network(m)).map, m)


class TestSymmetryReport:
    def test_example_network(self):
        r = symmetry_report(example_network())
        assert r.admissible and r.type_label == "I" and r.aut == "z2"
        l1, l3, equal = r.gap_condition
        assert (l1, l3, equal) == (1, 1, True)

    @given(p=palindromic_points())
    def test_gap_condition_is_the_z2_verdict(self, p):
        l1, _, l3 = p.gaps
        r = symmetry_report(map_to_network(representative_map(p)))
        assert r.gap_condition == (l1, l3, automorphisms(p).kind == "z2")
        assert r.gap_condition[2] == (l1 == l3)

    def test_broken_symmetry(self):
        units = ((1, 0, 1), (1, -1, 1), (1, -3, -1), (1, -6, -1))
        r = symmetry_report(ReLUNetwork(3, 0, units))
        assert r.type_label == "I" and r.aut == "trivial"
        assert r.gap_condition == (1, 3, False)

    def test_dead_unit_zero_coefficient(self):
        units = EXAMPLE_UNITS + ((1, -7, 0),)
        r = symmetry_report(ReLUNetwork(3, 0, units))
        assert [(d.index, d.reason) for d in r.dead_units] == \
            [(4, "zero-coefficient")]
        assert r.admissible and r.type_label == "I"

    def test_dead_unit_zero_weight(self):
        units = EXAMPLE_UNITS + ((0, 5, 2),)
        r = symmetry_report(ReLUNetwork(3, 0, units))
        assert [(d.index, d.reason) for d in r.dead_units] == [(4, "zero-weight")]
        assert r.admissible

    def test_cancelled_threshold_units(self):
        units = EXAMPLE_UNITS + ((1, -7, 2), (1, -7, -2))
        r = symmetry_report(ReLUNetwork(3, 0, units))
        assert {(d.index, d.reason) for d in r.dead_units} == \
            {(4, "cancelled-threshold"), (5, "cancelled-threshold")}
        assert r.admissible and r.type_label == "I"

    def test_cancelled_pair_with_a_negative_fractional_weight(self):
        # both thresholds are 1/3; the jumps 2 * 3/2 and -1 * 3 cancel
        units = EXAMPLE_UNITS + (("-3/2", "1/2", 2), (3, -1, -1))
        r = symmetry_report(ReLUNetwork(3, 0, units))
        assert [(d.index, d.reason) for d in r.dead_units] == \
            [(4, "cancelled-threshold"), (5, "cancelled-threshold")]

    def test_inadmissible_network(self):
        r = symmetry_report(ReLUNetwork(2, 0, ()))
        assert not r.admissible and r.type_label is None and r.aut is None
