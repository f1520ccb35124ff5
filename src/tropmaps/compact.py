"""The compactified gap cube [0, inf]^3 of a four-break type.

Each maximal cell of the source-quotiented moduli space is a copy of the
open cube (0, inf)^3 in the gap coordinates; the compactification
extends every coordinate to [0, inf].  Zero coordinates are break-point
collisions (valid merges when the adjacent jumps share a sign, variation-
reducing otherwise); infinite coordinates are purely combinatorial
labels with no map realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .rational import is_infinite, parse_extended
from .types_enum import SlopeSequence, _admissibility_reasons, canonical_type

ZERO = "zero"
OPEN = "open"
INFINITE = "infinite"

VALID_MERGE = "valid-merge"
REDUCED_VARIATION = "reduced-variation"


@dataclass(frozen=True)
class CompactifiedPoint:
    seq: SlopeSequence
    extended_gaps: tuple  # each 0, a positive rational, or inf

    def __post_init__(self):
        if self.seq.k != 4:
            raise ValueError("compactified cells exist for four-break types only")
        gaps = tuple(g if is_infinite(g) else parse_extended(g)
                     for g in self.extended_gaps)
        object.__setattr__(self, "extended_gaps", gaps)
        if len(gaps) != 3:
            raise ValueError("need exactly three extended gap coordinates")
        if any(g < 0 for g in gaps):
            raise ValueError("gap coordinates must lie in [0, inf]")


@dataclass(frozen=True)
class BoundaryStratum:
    coordinate_states: tuple  # over {ZERO, OPEN, INFINITE}
    codimension: int
    collisions: tuple         # (gap index 1..3, VALID_MERGE | REDUCED_VARIATION)
    infinity_indices: tuple
    limit_slopes: tuple       # merged slope sequence (raw ints; may be degenerate)
    in_moduli: bool
    limit_label: str | None   # registry label of the limit type, when in_moduli


def _coordinate_state(g):
    if is_infinite(g):
        return INFINITE
    if g == 0:
        return ZERO
    return OPEN


def _merge_jumps(jumps, zero_indices):
    """Merge jump groups across vanishing gaps, left to right.

    Gap i separates jumps i and i+1 (1-based); a zero gap joins their
    groups.  Groups summing to zero cancel entirely, so cascades may end
    in a break-free sequence.
    """
    groups = [[j] for j in jumps]
    owner = list(range(len(jumps)))  # owner[i]: group of original jump i
    for i in zero_indices:           # 1-based gap index
        a, b = owner[i - 1], owner[i]
        if a == b:
            continue
        groups[a].extend(groups[b])
        for t, o in enumerate(owner):
            if o == b:
                owner[t] = a
    merged = []
    for g in sorted(set(owner)):
        total = sum(groups[g])
        if total != 0:
            merged.append(total)
    return tuple(merged)


def classify_stratum(p: CompactifiedPoint) -> BoundaryStratum:
    """Coordinate states, collision tags, and the limit slope sequence."""
    states = tuple(_coordinate_state(g) for g in p.extended_gaps)
    jumps = p.seq.jumps
    collisions = []
    for i, st in enumerate(states, start=1):
        if st == ZERO:
            collisions.append((i, VALID_MERGE if p.seq.jumps_share_sign(i)
                               else REDUCED_VARIATION))
    infinity = tuple(i for i, st in enumerate(states, start=1) if st == INFINITE)
    merged = _merge_jumps(jumps, [i for i, _ in collisions])
    slopes = [3]
    for j in merged:
        slopes.append(slopes[-1] + j)
    in_moduli = not _admissibility_reasons(3, slopes)
    label = None
    if in_moduli:
        label = canonical_type(SlopeSequence(3, tuple(slopes))).label
    return BoundaryStratum(states, sum(1 for s in states if s != OPEN),
                           tuple(collisions), infinity, tuple(slopes),
                           in_moduli, label)


def face_lattice(seq: SlopeSequence):
    """All 27 coordinate-state faces of the cube of a four-break type."""
    if seq.k != 4:
        raise DomainError("face lattice needs a four-break type, got k=%d" % seq.k,
                          code="not-a-maximal-type")
    reps = {ZERO: 0, OPEN: 1, INFINITE: float("inf")}
    strata = []
    for a in (ZERO, OPEN, INFINITE):
        for b in (ZERO, OPEN, INFINITE):
            for c in (ZERO, OPEN, INFINITE):
                point = CompactifiedPoint(seq, (reps[a], reps[b], reps[c]))
                strata.append(classify_stratum(point))
    return strata
