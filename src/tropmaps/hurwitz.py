"""Branch configurations and the degree-3 Hurwitz fiber.

Over a generic configuration of four branch points the branch map has
six geometric preimages (one per four-break slope sequence, counting the
two orientations of the non-palindromic type III separately) and weighted
degree nine.  The per-type multiplicities 2, 1, 2, 2, 2 for types I
through V (TYPE_MULTIPLICITY) are taken from the paper, not derived, so
the weighted degree nine is not an independent check of them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .moduli import ModuliPoint
from .rational import parse_exactly, parse_rational
from .record import Record
from .types_enum import _D3_LABELS, SlopeSequence, _reversal_min

TYPE_MULTIPLICITY = {"I": 2, "II": 1, "III": 2, "IV": 2, "V": 2}

# The fiber's rows: each orientation of each four-break type (only type
# III has two), with the multiplicity of its type, in the order fiber
# lists them.
_FIBER_ROWS = tuple((SlopeSequence(3, slopes), TYPE_MULTIPLICITY[label])
                    for slopes, label in _D3_LABELS.items()
                    if label in TYPE_MULTIPLICITY)


class NonGenericConfiguration(DomainError):
    """Coincident branch points are outside the generic locus."""
    code = "non-generic-configuration"


class QuotientedModuliPoint(Record):
    canonical_seq: SlopeSequence
    gaps: tuple
    reversed_orientation: bool


class BranchConfiguration(Record):
    """Three consecutive distances between the four ordered branch points."""
    distances: tuple

    def __init__(self, distances):
        ds = parse_exactly(distances, 3, "need exactly three distances", parse_rational)
        if any(d <= 0 for d in ds):
            raise NonGenericConfiguration("branch points must be distinct")
        super().__init__(ds)

    @classmethod
    def from_branch_points(cls, points):
        pts = sorted(parse_exactly(points, 4, "need exactly four branch points", parse_rational))
        return cls(tuple(b - a for a, b in zip(pts, pts[1:])))


class HurwitzFiberElement(Record):
    seq: SlopeSequence
    gaps: tuple
    multiplicity: int


def quotient_source(p: ModuliPoint) -> QuotientedModuliPoint:
    """Drop the translation parameter and identify the two orientations.

    Orientation reversal acts by simultaneously reversing the slope
    sequence and the gap vector (the combined source-and-target
    reflection, which keeps slopes positive); the representative is the
    lexicographic minimum of the pair.
    """
    (slopes, gaps), reversed_ = _reversal_min(p.seq.slopes, p.gaps)
    return QuotientedModuliPoint(SlopeSequence(3, slopes), gaps, reversed_)


def branch_configuration(p: ModuliPoint) -> BranchConfiguration:
    """Consecutive critical-value distances d_i = s_i * l_i (interior slopes)."""
    if p.seq.k != 4:
        raise DomainError("branch configuration needs four simple critical points",
                          code="not-a-maximal-type")
    interior = p.seq.slopes[1:-1]
    return BranchConfiguration(tuple(s * g for s, g in zip(interior, p.gaps)))


def fiber(b: BranchConfiguration):
    """Solve l_i = d_i / s_i for every four-break sequence.

    Interior slopes are positive, so every sequence yields exactly one
    solution with positive gaps: six geometric elements.  Multiplicities
    come from the per-type table and are shared by the two orientations
    of type III.
    """
    elements = []
    for seq, multiplicity in _FIBER_ROWS:
        gaps = tuple(Fraction(d, s) for d, s in zip(b.distances, seq.slopes[1:-1]))
        elements.append(HurwitzFiberElement(seq, gaps, multiplicity))
    return elements


def hurwitz_number(b: BranchConfiguration) -> int:
    """Weighted sheet count of the branch map: the table value once per
    canonical type present in the fiber.  Every generic configuration has
    all five four-break types in its fiber, so this is the table's sum."""
    return sum(TYPE_MULTIPLICITY.values())
