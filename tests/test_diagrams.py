"""The paper's statements as diagrams across modules: one moduli point taken
along two paths through different modules must arrive at the same place.
Each module has its own oracle elsewhere; these tests check that the modules
agree with each other."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tropmaps import (BranchConfiguration, CompactifiedPoint, InvalidDegeneration, ModuliPoint,
                      SlopeSequence, automorphisms, branch_configuration, classify_stratum,
                      degenerate, face_lattice, fiber, map_to_network, moduli_point,
                      quotient_source, representative_map, symmetry_report)
from tropmaps.hurwitz import TYPE_MULTIPLICITY
from tropmaps.types_enum import _D3_LABELS

GAPS = st.builds(Fraction, st.integers(1, 600), st.integers(1, 12))


@st.composite
def points(draw, k=None):
    """A point of any of the 14 oriented degree-3 sequences (the keys of
    _D3_LABELS), or of those with k breaks: random positive gaps, the last
    equal to the first half of the time, so palindromic types reach their Z/2
    locus, and a random position."""
    slopes = sorted(s for s in _D3_LABELS if k is None or len(s) - 1 == k)
    seq = SlopeSequence(3, draw(st.sampled_from(slopes)))
    gaps = draw(st.lists(GAPS, min_size=seq.k - 1, max_size=seq.k - 1))
    if draw(st.booleans()):
        gaps[-1] = gaps[0]
    position = draw(st.builds(Fraction, st.integers(-240, 240), st.integers(1, 12)))
    return ModuliPoint(seq, gaps, position)


class TestDiagrams:
    @settings(max_examples=80, deadline=None)
    @given(p=points())
    def test_a_point_and_its_map_and_network_agree(self, p):
        """Two statements of the paper.  The moduli cells: a degree-3 map up
        to translation of the target is its slope sequence, its gaps and its
        first break point, so the anchor-0 map of a point lies over that point
        again.  The ten types and their automorphism groups: the canonical
        network of that map has no dead unit, and its report names the
        point's registry type and the group `automorphisms` gives the point
        (Z/2 just when slopes and gaps are both palindromic)."""
        m = representative_map(p)
        assert moduli_point(m) == p
        report = symmetry_report(map_to_network(m))
        assert report.admissible and report.dead_units == ()
        assert report.type_label == _D3_LABELS[p.seq.slopes]
        assert report.aut == automorphisms(p).kind

    @settings(max_examples=80, deadline=None)
    @given(p=points(k=4))
    def test_a_point_and_the_cube_of_its_cell_agree(self, p):
        """Two statements of the paper about the compactified cell of a
        four-break type.  Its interior: a point with open gaps lies on the
        cube's open face, with no collision and the point's own type.  Its
        boundary as degenerations of the gaps: merging the breaks of gap i in
        the moduli space succeeds exactly when the face with only gap i at
        zero is a valid merge, and then lands on that face's limit type."""
        interior = classify_stratum(CompactifiedPoint(p.seq, p.gaps))
        assert interior.codimension == 0 and interior.collisions == () and interior.in_moduli
        assert interior.limit_label == _D3_LABELS[p.seq.slopes]
        faces = {face.coordinate_states: face for face in face_lattice(p.seq)}
        for i in (1, 2, 3):
            face = faces[tuple("zero" if j == i else "open" for j in (1, 2, 3))]
            try:
                q = degenerate(p, i)
            except InvalidDegeneration:
                assert face.collisions == ((i, "reduced-variation"),)
            else:
                assert face.collisions == ((i, "valid-merge"),) and face.in_moduli
                assert q.seq.slopes == face.limit_slopes

    @settings(max_examples=80, deadline=None)
    @given(p=points(k=4))
    def test_a_quotiented_point_lies_in_the_fiber_of_its_configuration(self, p):
        """The paper's Hurwitz fiber of the source-quotiented space: a
        four-break point with its translation dropped and its two orientations
        identified is one element of the fiber over its branch configuration,
        with its type's multiplicity.  The configuration is read in the
        representative's orientation: a reversal reverses the distances too."""
        q = quotient_source(p)
        d = branch_configuration(p).distances
        b = BranchConfiguration(d[::-1] if q.reversed_orientation else d)
        multiplicity = {(e.seq, e.gaps): e.multiplicity for e in fiber(b)}
        assert multiplicity[q.canonical_seq, q.gaps] == \
            TYPE_MULTIPLICITY[_D3_LABELS[q.canonical_seq.slopes]]
