import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmaps import (InvalidDegeneration, ModuliPoint,
                      TropicalMap, automorphisms, branch_configuration, canonical_type,
                      curve_automorphisms, degenerate, evaluate, maps_equal,
                      moduli_point, ramification, registry_d3,
                      registry_sequence, representative_map, stratum,
                      weighted_curve)
from tropmaps.errors import InputError
from conftest import random_fraction

PALINDROMIC_LABELS = [t.label for t in registry_d3() if t.palindromic]
GAPS = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)
POSITIONS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
MISCOUNTED = "slope count must be break count + 1"


@st.composite
def points(draw):
    """A random point of any of the ten types; palindromic gaps for half of
    the palindromic sequences, so both automorphism kinds are drawn."""
    seq = draw(st.sampled_from(registry_d3())).representative
    n = seq.k - 1
    gaps = draw(st.lists(GAPS, min_size=n, max_size=n))
    if draw(st.booleans()):
        gaps[n - n // 2:] = gaps[:n // 2][::-1]
    return ModuliPoint(seq, gaps, draw(POSITIONS))


def point(label, gaps, position=0):
    return ModuliPoint(registry_sequence(label), gaps, position)


class TestModuliCoordinates:
    def test_example_map(self, example_map):
        p = moduli_point(example_map)
        assert p.seq.slopes == (3, 4, 5, 4, 3)
        assert p.gaps == (1, 2, 1) and p.position == 0

    def test_two_break_map(self):
        p = moduli_point(TropicalMap((5, 6), (3, 5, 3), 11))
        assert p.gaps == (1,) and p.position == 5

    def test_anchor_is_quotiented(self, example_map):
        shifted = TropicalMap(example_map.break_points, example_map.slopes, 99)
        assert moduli_point(example_map) == moduli_point(shifted)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            moduli_point(TropicalMap((0, 1), (3, 4, 3), 0))

    def test_inadmissible_message_is_bounded(self):
        # end slopes of 4,000 digits: the joined reasons run to 245 characters
        n = int("9" * 4000)
        with pytest.raises(ValueError) as info:
            moduli_point(TropicalMap((0, 1), (n, 3, n), 0))
        text = str(info.value)
        assert len(text) <= 200 and text.endswith("(245 characters)")

    @pytest.mark.parametrize("m, rule", [
        (((), (3,)), "total ramification 0 != 4"),
        (((), ()), MISCOUNTED),
        (((1, 0), (3, 5, 3)), "gap lengths must be positive"),
        (((0, 1), (3, "7/2", 3)), "non-integer slope: 7/2"),
        (((0,), (3, 5, 4, 3)), MISCOUNTED),
    ])
    def test_rejection_names_the_constructor_rule(self, m, rule):
        if rule == MISCOUNTED:
            # TropicalMap refuses the map itself: moduli_point never sees it
            with pytest.raises(ValueError) as info:
                TropicalMap(*m, 0)
            assert str(info.value) == rule and not hasattr(info.value, "code")
            return
        with pytest.raises(ValueError) as info:
            moduli_point(TropicalMap(*m, 0))
        assert info.value.code == "inadmissible-map"
        assert str(info.value) == "inadmissible map: " + rule

    def test_representative_roundtrip(self, example_map):
        p = moduli_point(example_map)
        assert maps_equal(representative_map(p), example_map)

    def test_representative_of_coordinates(self):
        m = representative_map(point("IX", (2,), -1))
        assert m.break_points == (-1, 1) and m.slopes == (3, 5, 3)
        assert m.anchor_value == 0

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            label = rng.choice("I II III IV V VI VII VIII IX X".split())
            seq = registry_sequence(label)
            gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
            p = ModuliPoint(seq, gaps, random_fraction(rng, -20, 20))
            assert moduli_point(representative_map(p)) == p


class TestAutomorphisms:
    def test_example_is_symmetric(self, example_map):
        g = automorphisms(moduli_point(example_map))
        assert g.kind == "z2"
        assert g.reflection_center == 2 and g.target_shift == 18
        # the functional equation at the center
        assert evaluate(example_map, 4 - 2) == -evaluate(example_map, 2) + 18

    def test_asymmetric_gaps(self):
        assert automorphisms(point("I", (1, 2, 5))).kind == "trivial"

    @pytest.mark.parametrize("label", ["IX", "X"])
    def test_two_break_always_symmetric(self, label):
        rng = random.Random(3)
        for _ in range(20):
            p = point(label, (random_fraction(rng),), random_fraction(rng, -9, 9))
            assert automorphisms(p).kind == "z2"

    def test_non_palindromic_always_trivial(self):
        assert automorphisms(point("III", (1, 1, 1))).kind == "trivial"
        assert automorphisms(point("VI", (1, 1))).kind == "trivial"

    def test_functional_equation_witness(self):
        rng = random.Random(11)
        for _ in range(50):
            g1 = random_fraction(rng)
            g2 = random_fraction(rng)
            p = point("IV", (g1, g2, g1), random_fraction(rng, -9, 9))
            g = automorphisms(p)
            assert g.kind == "z2"
            m = representative_map(p)
            xs = list(m.break_points)
            xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            for x in xs:
                assert (evaluate(m, 2 * g.reflection_center - x)
                        == -evaluate(m, x) + g.target_shift)

    @given(label=st.sampled_from(PALINDROMIC_LABELS), outer=GAPS, inner=GAPS,
           position=st.fractions(min_value=-50, max_value=50, max_denominator=12),
           beyond=GAPS)
    def test_reflection_equation(self, label, outer, inner, position, beyond):
        """phi(2c - x) = -phi(x) + b at the breaks, the midpoints and beyond
        both ends; a piecewise-linear map agreeing there agrees everywhere."""
        seq = registry_sequence(label)
        gaps = (outer,) if seq.k == 2 else (outer, inner, outer)
        p = ModuliPoint(seq, gaps, position)
        g = automorphisms(p)
        assert g.kind == "z2"
        m = representative_map(p)
        xs = list(m.break_points)
        xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        xs += [m.break_points[0] - beyond, m.break_points[-1] + beyond]
        for x in xs:
            assert (evaluate(m, 2 * g.reflection_center - x)
                    == -evaluate(m, x) + g.target_shift)

    @settings(max_examples=60)
    @given(p=points())
    def test_against_the_representative_map(self, p):
        """Center and shift equal the midpoint of the outer breaks and the sum
        of the values there, read from the anchor-0 map; for four breaks the
        shift is d1 + d2 + d3 of the branch configuration."""
        g, m = automorphisms(p), representative_map(p)
        if g.kind == "trivial":
            return
        xs, values = m.break_points, m.break_point_values
        assert g.reflection_center == (xs[0] + xs[-1]) / 2
        assert g.target_shift == values[0] + values[-1]
        if p.seq.k == 4:
            assert g.target_shift == sum(branch_configuration(p).distances)

    def test_only_two_kinds_exist(self):
        rng = random.Random(5)
        for t in registry_d3():
            seq = t.representative
            gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
            g = automorphisms(ModuliPoint(seq, gaps, 0))
            assert g.kind in ("trivial", "z2")


class TestStratum:
    def test_symmetric(self, example_map):
        s = stratum(moduli_point(example_map))
        assert s.label == "symmetric" and s.cell_dimension == 4
        assert s.symmetric_locus and s.aut == "z2"

    def test_generic_from_non_palindromic_sequence(self):
        s = stratum(point("III", (1, 1, 1)))
        assert s.label == "generic" and s.aut == "trivial"

    def test_generic_from_unequal_gaps(self):
        s = stratum(point("I", (1, 2, 5)))
        assert s.label == "generic" and not s.symmetric_locus

    def test_symmetric_boundary(self):
        s = stratum(point("X", (7,)))
        assert s.label == "symmetric-boundary" and s.cell_dimension == 2

    def test_intermediate(self):
        s = stratum(point("VII", (1, 2)))
        assert s.label == "intermediate" and s.cell_dimension == 3
        assert s.aut == "trivial"


EXPECTED_POSET = {("I", "VI"), ("III", "VIII"), ("V", "VII"),
                  ("VI", "IX"), ("VII", "X")}


class TestDegeneration:
    def test_type_i_merge_first(self):
        q = degenerate(point("I", (1, 2, 1)), 1)
        assert q.seq.slopes == (3, 5, 4, 3)
        assert q.gaps == (2, 1) and q.position == 0

    def test_type_i_opposite_signs_rejected(self):
        with pytest.raises(InvalidDegeneration):
            degenerate(point("I", (1, 2, 1)), 2)

    def test_type_v_merge(self):
        q = degenerate(point("V", (1, 1, 1)), 1)
        assert canonical_type(q.seq).label == "VII"

    def test_merge_index_bounds(self):
        for i in (0, 4):   # gaps 1 to k - 1 = 3 merge
            with pytest.raises(InputError, match="^merge index out of range$"):
                degenerate(point("I", (1, 2, 1)), i)

    def test_positions_shift_down(self):
        # merged break sits at the lower colliding point; upper breaks
        # shift down by the removed gap
        q = degenerate(point("I", (5, 2, 1)), 1)
        m = representative_map(q)
        assert m.break_points == (0, 2, 3)

    def test_exhaustive_poset(self):
        found = set()
        for t in registry_d3():
            seq = t.representative
            gaps = tuple(Fraction(n + 1) for n in range(seq.k - 1))
            p = ModuliPoint(seq, gaps, 0)
            for i in range(1, seq.k):
                try:
                    q = degenerate(p, i)
                except InvalidDegeneration:
                    continue
                assert ramification(representative_map(q)).total == 4
                child = canonical_type(q.seq).label
                assert child is not None
                found.add((t.label, child))
        assert found == EXPECTED_POSET


class TestWeightedCurve:
    def test_example_curve(self, example_map):
        c = weighted_curve(moduli_point(example_map))
        assert [w for _, w in c.finite_vertices] == [1, 1, 1, 1]
        assert c.bounded_edges == ((1, 4), (2, 5), (1, 4))
        assert c.leaf_dilations == (3, 3)

    def test_type_ix_curve(self):
        c = weighted_curve(point("IX", (2,)))
        assert [w for _, w in c.finite_vertices] == [2, 2]
        assert c.bounded_edges == ((2, 5),)

    def test_type_x_curve(self):
        c = weighted_curve(point("X", (1,)))
        assert [w for _, w in c.finite_vertices] == [2, 2]
        assert c.bounded_edges == ((1, 1),)

    def test_curve_aut_matches_map_aut(self):
        rng = random.Random(13)
        for t in registry_d3():
            seq = t.representative
            for _ in range(20):
                gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
                p = ModuliPoint(seq, gaps, 0)
                expect = automorphisms(p).kind
                assert curve_automorphisms(weighted_curve(p)) == expect

    @settings(max_examples=60)
    @given(p=points())
    def test_against_the_representative_map(self, p):
        """The curve read from the coordinates is the one built from the
        anchor-0 map: its breaks with their ramification weights."""
        m = representative_map(p)
        c = weighted_curve(p)
        assert c.finite_vertices == tuple(zip(m.break_points, ramification(m).weights))
        assert c.bounded_edges == tuple(zip(p.gaps, m.slopes[1:-1]))
        assert c.leaf_dilations == (m.slopes[0], m.slopes[-1])

    def test_single_edge_curves_symmetric(self):
        for label in ("IX", "X"):
            assert curve_automorphisms(weighted_curve(point(label, (3,)))) == "z2"
