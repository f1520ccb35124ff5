import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tropmaps import (CompactifiedPoint, InvalidDegeneration, ModuliPoint,
                      SlopeSequence, classify_stratum, degenerate, face_lattice,
                      registry_d3, registry_sequence)

INF = math.inf
DEGENERATE_LABELS = {"VI", "VII", "VIII", "IX", "X"}
# Every admissible four-break degree-3 tuple in both orientations: six, as
# only type III is not a palindrome.
ORIENTED_FOUR_BREAK = sorted({s for t in registry_d3() if t.k == 4
                              for s in (t.canonical.slopes, t.canonical.slopes[::-1])})
OPEN_GAPS = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)


def cp(label, gaps):
    return CompactifiedPoint(registry_sequence(label), gaps)


def limit_slopes_oracle(seq, states):
    """The limit slope sequence read pointwise off
    f(x) = s_0*x + sum(jump_i * max(0, x - x_i)), where break i+1 sits one
    unit right of break i unless gap i is zero: the slope of f between
    neighbouring distinct positions and beyond both ends, with each slope
    that repeats its left neighbour dropped (no kink there)."""
    xs = [0]
    for state in states:
        xs.append(xs[-1] if state == "zero" else xs[-1] + 1)

    def f(x):
        return seq.slopes[0] * x + sum(j * max(0, x - xi) for xi, j in zip(xs, seq.jumps))

    ends = sorted(set(xs))
    samples = [ends[0] - 1, *ends, ends[-1] + 1]
    read = [Fraction(f(y) - f(x), y - x) for x, y in zip(samples, samples[1:])]
    return tuple(s for i, s in enumerate(read) if i == 0 or s != read[i - 1])


class TestClassifyStratum:
    def test_interior_point(self):
        s = classify_stratum(cp("I", (1, 2, 1)))
        assert s.codimension == 0 and s.in_moduli
        assert s.limit_slopes == (3, 4, 5, 4, 3) and s.limit_label == "I"

    def test_valid_collision(self):
        s = classify_stratum(cp("I", (0, 2, 1)))
        assert s.codimension == 1
        assert s.collisions == ((1, "valid-merge"),)
        assert s.limit_slopes == (3, 5, 4, 3)
        assert s.in_moduli and s.limit_label == "VI"

    def test_reduced_variation_collision(self):
        s = classify_stratum(cp("I", (1, 0, 1)))
        assert s.collisions == ((2, "reduced-variation"),)
        assert s.limit_slopes == (3, 4, 3)
        assert not s.in_moduli and s.limit_label is None

    def test_infinity_face(self):
        s = classify_stratum(cp("IV", (1, 1, INF)))
        assert s.codimension == 1
        assert s.infinity_indices == (3,) and s.collisions == ()
        assert s.in_moduli  # no collision: the slope data is untouched

    def test_infinity_strings_are_the_float_infinities(self):
        assert cp("I", ("1", "inf", "0")) == cp("I", (1, INF, 0))
        for gap in ("-inf", -INF):
            with pytest.raises(ValueError, match=r"must lie in \[0, inf\]"):
                cp("I", (1, gap, 1))

    def test_cascading_collision(self):
        # both outer gaps vanish: two valid merges at once for type I
        s = classify_stratum(cp("I", (0, 1, 0)))
        assert s.codimension == 2
        assert s.limit_slopes == (3, 5, 3) and s.limit_label == "IX"

    def test_total_cancellation(self):
        # type II has alternating jumps; merging everything kills all breaks
        s = classify_stratum(cp("II", (0, 0, 0)))
        assert s.limit_slopes == (3,) and not s.in_moduli

    def test_type_ii_all_collisions_reduced(self):
        for i, gaps in enumerate([(0, 1, 1), (1, 0, 1), (1, 1, 0)], start=1):
            s = classify_stratum(cp("II", gaps))
            assert s.collisions == ((i, "reduced-variation"),)

    def test_rejects_lower_types(self):
        with pytest.raises(ValueError):
            CompactifiedPoint(registry_sequence("IX"), (1, 1, 1))

    @pytest.mark.parametrize("label, k", [("VI", 3), ("IX", 2)])
    def test_lower_type_code_comes_from_the_constructor(self, label, k):
        for make in (lambda s: CompactifiedPoint(s, (1, 1, 1)), face_lattice):
            with pytest.raises(ValueError) as info:
                make(registry_sequence(label))
            assert info.value.code == "not-a-maximal-type"
            assert str(info.value).endswith("got k=%d" % k)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            cp("I", (-1, 1, 1))
        with pytest.raises(ValueError):
            cp("I", (1, -INF, 1))

    @pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
    def test_degenerate_agrees_with_one_zero_face(self, label):
        # oracle: merging the breaks of gap i in the moduli space succeeds
        # exactly when the face with only gap i at zero is a valid merge
        for i in (1, 2, 3):
            gaps = tuple(0 if j == i else 1 for j in (1, 2, 3))
            face = classify_stratum(cp(label, gaps))
            try:
                q = degenerate(ModuliPoint(registry_sequence(label), (1, 1, 1), 0), i)
            except InvalidDegeneration:
                assert face.collisions == ((i, "reduced-variation"),)
            else:
                assert face.collisions == ((i, "valid-merge"),)
                assert q.seq.slopes == face.limit_slopes


class TestFaceLattice:
    @pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
    def test_census(self, label):
        strata = face_lattice(registry_sequence(label))
        assert len(strata) == 27
        census = Counter(s.codimension for s in strata)
        assert census == {0: 1, 1: 6, 2: 12, 3: 8}

    @pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
    def test_valid_merges_land_in_degenerate_registry(self, label):
        for s in face_lattice(registry_sequence(label)):
            if s.collisions and s.in_moduli:
                assert s.limit_label in DEGENERATE_LABELS

    @pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
    def test_in_moduli_iff_variation_four(self, label):
        for s in face_lattice(registry_sequence(label)):
            variation = sum(abs(b - a) for a, b in
                            zip(s.limit_slopes, s.limit_slopes[1:]))
            assert s.in_moduli == (variation == 4)

    @pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
    def test_limit_slopes_match_the_pointwise_oracle(self, label):
        seq = registry_sequence(label)
        for s in face_lattice(seq):
            assert s.limit_slopes == limit_slopes_oracle(seq, s.coordinate_states)

    def test_type_i_codim1_collisions(self):
        by_index = {}
        for s in face_lattice(registry_sequence("I")):
            if s.codimension == 1 and len(s.collisions) == 1:
                idx, kind = s.collisions[0]
                by_index[idx] = (kind, s.limit_slopes)
        assert by_index == {
            1: ("valid-merge", (3, 5, 4, 3)),
            2: ("reduced-variation", (3, 4, 3)),
            3: ("valid-merge", (3, 4, 5, 3)),
        }

    @settings(max_examples=60, deadline=None)
    @given(slopes=st.sampled_from(ORIENTED_FOUR_BREAK),
           opens=st.lists(OPEN_GAPS, min_size=3, max_size=3))
    def test_each_face_is_the_stratum_of_a_point_on_it(self, slopes, opens):
        # a zero state is gap 0, an infinite one inf, an open one a drawn rational
        seq = SlopeSequence(3, slopes)
        faces = face_lattice(seq)
        assert [f.coordinate_states for f in faces] == list(
            product(("zero", "open", "infinite"), repeat=3))
        for face in faces:
            gaps = tuple({"zero": 0, "open": g, "infinite": INF}[state]
                         for state, g in zip(face.coordinate_states, opens))
            assert face == classify_stratum(CompactifiedPoint(seq, gaps))

    def test_all_maximal_types_census(self):
        for t in registry_d3():
            if t.k == 4:
                assert len(face_lattice(t.representative)) == 27
