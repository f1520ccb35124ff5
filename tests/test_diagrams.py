"""The paper's statements as diagrams across modules: one moduli point taken
along two paths through different modules must arrive at the same place.
Each module has its own oracle elsewhere; these tests check that the modules
agree with each other."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tropmaps import (ModuliPoint, SlopeSequence, automorphisms, map_to_network,
                      moduli_point, representative_map, symmetry_report)
from tropmaps.types_enum import _D3_LABELS

GAPS = st.builds(Fraction, st.integers(1, 600), st.integers(1, 12))


@st.composite
def points(draw):
    """A point of any of the 14 oriented degree-3 sequences (the keys of
    _D3_LABELS): random positive gaps, the last equal to the first half of the
    time, so palindromic types reach their Z/2 locus, and a random position."""
    seq = SlopeSequence(3, draw(st.sampled_from(sorted(_D3_LABELS))))
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
