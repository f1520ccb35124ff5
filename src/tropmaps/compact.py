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
from .rational import is_infinite, parse_exactly, parse_extended
from .record import Record
from .types_enum import _D3_LABELS, SlopeSequence

ZERO = "zero"
OPEN = "open"
INFINITE = "infinite"

VALID_MERGE = "valid-merge"
REDUCED_VARIATION = "reduced-variation"


def _require_four_breaks(seq):
    if seq.k != 4:
        raise DomainError("compactified cells exist for four-break types only, "
                          "got k=%d" % seq.k, code="not-a-maximal-type")


class CompactifiedPoint(Record):
    seq: SlopeSequence
    extended_gaps: tuple  # each 0, a positive rational, or inf

    def __init__(self, seq, extended_gaps):
        _require_four_breaks(seq)
        gaps = parse_exactly(extended_gaps, 3, "need exactly three extended gap coordinates",
                             parse_extended)
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


def _stratum(seq, states):
    """The face of a four-break sequence with the given coordinate states."""
    collisions = tuple((i, VALID_MERGE if seq.jumps_share_sign(i) else REDUCED_VARIATION)
                       for i, st in enumerate(states, start=1) if st == ZERO)
    infinity = tuple(i for i, st in enumerate(states, start=1) if st == INFINITE)
    # Breaks i and i+1 sit at one position exactly when gap i is zero.
    at = accumulate((st != ZERO for st in states), initial=0)
    slopes = tuple(_merge_kinks(seq.slopes[0], zip(at, seq.jumps))[1])
    label = _D3_LABELS.get(slopes)
    return BoundaryStratum(states, 3 - states.count(OPEN), collisions, infinity,
                           slopes, label is not None, label)


def classify_stratum(p: CompactifiedPoint) -> BoundaryStratum:
    """Coordinate states, collision tags, and the limit slope sequence."""
    return _stratum(p.seq, tuple(map(_coordinate_state, p.extended_gaps)))


def face_lattice(seq: SlopeSequence):
    """All 27 coordinate-state faces of the cube of a four-break type, in
    product order over zero < open < infinite with the first gap slowest:
    (zero, zero, zero), (zero, zero, open), ..., (infinite, infinite, infinite).
    The strata command and its golden output list the faces in this order."""
    _require_four_breaks(seq)
    return [_stratum(seq, states)
            for states in product((ZERO, OPEN, INFINITE), repeat=3)]
