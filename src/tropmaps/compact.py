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


# The faces' states, in face_lattice's order -> gaps at zero, codimension, gaps at infinity.
_FACES = {states: (tuple(i for i in (1, 2, 3) if states[i - 1] == ZERO), 3 - states.count(OPEN),
                   tuple(i for i in (1, 2, 3) if states[i - 1] == INFINITE))
          for states in product((ZERO, OPEN, INFINITE), repeat=3)}


def _limit(seq, zeros):
    """Collisions, limit slopes and limit label of the faces with gaps `zeros` at zero."""
    collisions = tuple((i, VALID_MERGE if seq.jumps_share_sign(i) else REDUCED_VARIATION)
                       for i in zeros)
    # Breaks i and i+1 sit at one position exactly when gap i is zero.
    at = accumulate((i not in zeros for i in (1, 2, 3)), initial=0)
    slopes = tuple(_merge_kinks(seq.slopes[0], zip(at, seq.jumps))[1])
    return collisions, slopes, _D3_LABELS.get(slopes)


def _strata(seq, faces):
    """The stratum of each face (its states) of seq's cube, one _limit per zero set."""
    limits = {}
    for states in faces:
        zeros, codimension, infinity = _FACES[states]
        if zeros not in limits:
            limits[zeros] = _limit(seq, zeros)
        collisions, slopes, label = limits[zeros]
        yield BoundaryStratum(states, codimension, collisions, infinity,
                              slopes, label is not None, label)


def classify_stratum(p: CompactifiedPoint) -> BoundaryStratum:
    """Coordinate states, collision tags, and the limit slope sequence."""
    states = tuple(INFINITE if is_infinite(g) else ZERO if g == 0 else OPEN
                   for g in p.extended_gaps)
    return next(_strata(p.seq, [states]))


def face_lattice(seq: SlopeSequence):
    """All 27 coordinate-state faces of the cube of a four-break type, in
    product order over zero < open < infinite with the first gap slowest:
    (zero, zero, zero), (zero, zero, open), ..., (infinite, infinite, infinite),
    the order of the strata command and its golden output.  A face's limit
    depends only on which gaps are zero, so the 27 faces cost 8 merges."""
    _require_four_breaks(seq)
    return list(_strata(seq, _FACES))
