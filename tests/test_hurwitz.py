import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmaps import (BranchConfiguration, ModuliPoint,
                      NonGenericConfiguration, automorphisms, branch_configuration,
                      canonical_type, fiber, hurwitz_number, moduli, moduli_point,
                      quotient_source, registry_sequence)
from tropmaps.errors import DomainError
from conftest import random_fraction

GAPS = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)


class TestQuotientSource:
    def test_reverses_to_lex_minimum(self):
        p = ModuliPoint(registry_sequence("III"),
                        (1, Fraction(10, 3), 2), 0)
        q = quotient_source(p)
        assert q.canonical_seq.slopes == (3, 2, 3, 4, 3)
        assert q.gaps == (2, Fraction(10, 3), 1)
        assert q.reversed_orientation

    def test_symmetric_point_unchanged(self, example_map):
        q = quotient_source(moduli_point(example_map))
        assert q.canonical_seq.slopes == (3, 4, 5, 4, 3)
        assert q.gaps == (1, 2, 1)
        assert not q.reversed_orientation

    @pytest.mark.parametrize("label", ["I", "II", "IV", "V", "IX", "X"])
    def test_palindromic_tie_keeps_forward(self, label):
        seq = registry_sequence(label)
        gaps = (2, Fraction(1, 3), 2) if seq.k == 4 else (7,)
        q = quotient_source(ModuliPoint(seq, gaps, 5))
        assert (q.canonical_seq, q.gaps) == (seq, gaps)
        assert not q.reversed_orientation

    def test_reflected_twins_identify(self):
        a = ModuliPoint(registry_sequence("I"), (1, 2, 5), 0)
        b = ModuliPoint(registry_sequence("I"), (5, 2, 1), -3)
        qa, qb = quotient_source(a), quotient_source(b)
        assert (qa.canonical_seq, qa.gaps) == (qb.canonical_seq, qb.gaps)

    def test_idempotent(self):
        p = ModuliPoint(registry_sequence("III"), (1, 1, 7), 4)
        q = quotient_source(p)
        again = quotient_source(ModuliPoint(q.canonical_seq, q.gaps, 0))
        assert (again.canonical_seq, again.gaps) == (q.canonical_seq, q.gaps)


class TestBranchConfiguration:
    def test_example(self, example_map):
        b = branch_configuration(moduli_point(example_map))
        assert b.distances == (4, 10, 4)

    def test_type_ii_unit_gaps(self):
        p = ModuliPoint(registry_sequence("II"), (1, 1, 1), 0)
        assert branch_configuration(p).distances == (4, 3, 4)

    def test_needs_four_breaks(self):
        p = ModuliPoint(registry_sequence("IX"), (1,), 0)
        with pytest.raises(DomainError) as info:
            branch_configuration(p)
        assert info.value.code == "not-a-maximal-type"

    def test_from_branch_points(self):
        b = BranchConfiguration.from_branch_points([0, 4, 14, 18])
        assert b.distances == (4, 10, 4)

    def test_coincident_points_rejected(self):
        with pytest.raises(NonGenericConfiguration):
            BranchConfiguration((1, 0, 1))
        with pytest.raises(NonGenericConfiguration):
            BranchConfiguration.from_branch_points([0, 1, 1, 2])


class TestFiber:
    def test_example_fiber_gaps(self):
        elements = fiber(BranchConfiguration((4, 10, 4)))
        got = {(e.seq.slopes, e.gaps) for e in elements}
        third = Fraction(10, 3)
        assert got == {
            ((3, 4, 5, 4, 3), (1, 2, 1)),
            ((3, 4, 3, 4, 3), (1, third, 1)),
            ((3, 4, 3, 2, 3), (1, third, 2)),
            ((3, 2, 3, 4, 3), (2, third, 1)),
            ((3, 2, 3, 2, 3), (2, third, 2)),
            ((3, 2, 1, 2, 3), (2, 10, 2)),
        }

    def test_multiplicities_by_type(self):
        elements = fiber(BranchConfiguration((4, 10, 4)))
        by_label = {}
        for e in elements:
            by_label.setdefault(canonical_type(e.seq).label, set()).add(e.multiplicity)
        assert by_label == {"I": {2}, "II": {1}, "III": {2}, "IV": {2}, "V": {2}}

    def test_weighted_count_is_nine(self):
        # The multiplicities are TYPE_MULTIPLICITY, taken from the paper; this
        # checks that each type of the fiber is counted once with its weight,
        # not the weights themselves.
        assert hurwitz_number(BranchConfiguration((4, 10, 4))) == 9
        assert hurwitz_number(BranchConfiguration((1, 1, 1))) == 9

    def test_counts_independent_of_configuration(self):
        rng = random.Random(19)
        for _ in range(100):
            b = BranchConfiguration(tuple(random_fraction(rng) for _ in range(3)))
            elements = fiber(b)
            assert len(elements) == 6
            assert hurwitz_number(b) == 9
            assert all(g > 0 for e in elements for g in e.gaps)

    def test_elements_round_trip(self):
        rng = random.Random(23)
        for _ in range(25):
            b = BranchConfiguration(tuple(random_fraction(rng) for _ in range(3)))
            for e in fiber(b):
                p = ModuliPoint(e.seq, e.gaps, 0)
                assert branch_configuration(p).distances == b.distances

    @settings(max_examples=60, deadline=None)
    @given(label=st.sampled_from(["I", "II", "III", "IV", "V"]), flip=st.booleans(),
           gaps=st.lists(GAPS, min_size=3, max_size=3), symmetric=st.booleans(),
           position=st.fractions(min_value=-20, max_value=20, max_denominator=12))
    def test_a_point_lies_in_the_fiber_of_its_configuration(self, label, flip, gaps,
                                                            symmetric, position):
        # quotient_source(p) is left out: a reversed point's quotient lies in
        # the fiber of the reversed distances, not of p's own
        seq = registry_sequence(label)
        if flip:
            seq = seq.reversed_()
        if symmetric:
            gaps[2] = gaps[0]
        p = ModuliPoint(seq, gaps, position)
        b = branch_configuration(p)
        assert (p.seq, p.gaps) in [(e.seq, e.gaps) for e in fiber(b)]
        aut = automorphisms(p)
        if aut.kind == moduli.Z2:   # the README's point: 18 = 4 + 10 + 4
            assert aut.target_shift == sum(b.distances)
