"""The compactified gap cube [0, inf]^3 of a four-break type.

Each maximal cell of the source-quotiented moduli space is a copy of the
open cube (0, inf)^3 in the gap coordinates; the compactification
extends every coordinate to [0, inf].  Zero coordinates are break-point
collisions (valid merges when the adjacent jumps share a sign, variation-
reducing otherwise); infinite coordinates are purely combinatorial
labels with no map realization.
"""

from __future__ import annotations

from itertools import accumulate, product

from .errors import DomainError
from .plcore import _merge_kinks
from .rational import POS_INF, is_infinite, parse_extended
from .record import Record
from .types_enum import _D3_LABELS, SlopeSequence

ZERO = "zero"
OPEN = "open"
INFINITE = "infinite"

VALID_MERGE = "valid-merge"
REDUCED_VARIATION = "reduced-variation"


class CompactifiedPoint(Record):
    seq: SlopeSequence
    extended_gaps: tuple  # each 0, a positive rational, or inf

    def __init__(self, seq, extended_gaps):
        if seq.k != 4:
            raise DomainError("compactified cells exist for four-break types only, "
                              "got k=%d" % seq.k, code="not-a-maximal-type")
        gaps = tuple(g if is_infinite(g) else parse_extended(g) for g in extended_gaps)
        if len(gaps) != 3:
            raise ValueError("need exactly three extended gap coordinates")
        if any(g < 0 for g in gaps):
            raise ValueError("gap coordinates must lie in [0, inf]")
        super().__init__(seq, gaps)


class BoundaryStratum(Record):
    coordinate_states: tuple  # over {ZERO, OPEN, INFINITE}
    codimension: int
    collisions: tuple         # (gap index 1..3, VALID_MERGE | REDUCED_VARIATION)
    infinity_indices: tuple
    limit_slopes: tuple       # merged slope sequence (raw ints; may be degenerate)
    in_moduli: bool           # the limit is one of the ten labelled types
    limit_label: str | None   # registry label of the limit type, when in_moduli


def _coordinate_state(g):
    if is_infinite(g):
        return INFINITE
    if g == 0:
        return ZERO
    return OPEN


def classify_stratum(p: CompactifiedPoint) -> BoundaryStratum:
    """Coordinate states, collision tags, and the limit slope sequence."""
    states = tuple(_coordinate_state(g) for g in p.extended_gaps)
    collisions = tuple((i, VALID_MERGE if p.seq.jumps_share_sign(i)
                        else REDUCED_VARIATION)
                       for i, st in enumerate(states, start=1) if st == ZERO)
    infinity = tuple(i for i, st in enumerate(states, start=1) if st == INFINITE)
    # Breaks i and i+1 sit at one position exactly when gap i is zero.
    at = accumulate((st != ZERO for st in states), initial=0)
    _, slopes = _merge_kinks(p.seq.slopes[0], zip(at, p.seq.jumps))
    label = _D3_LABELS.get(tuple(slopes))
    return BoundaryStratum(states, sum(1 for s in states if s != OPEN),
                           collisions, infinity, tuple(slopes),
                           label is not None, label)


def face_lattice(seq: SlopeSequence):
    """All 27 coordinate-state faces of the cube of a four-break type."""
    return [classify_stratum(CompactifiedPoint(seq, gaps))
            for gaps in product((0, 1, POS_INF), repeat=3)]
