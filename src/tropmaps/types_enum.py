"""Combinatorial types of admissible slope sequences.

A degree-d sequence (s_0,...,s_k) has s_0 = s_k = d, positive slopes,
no repeated consecutive slope, and total variation 2d-2.  Two sequences
related by reversal form one combinatorial type; in degree 3 there are
exactly ten, labeled I-X.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import sub

from .rational import _bounded_echo
from .record import Record


def _admissibility_reasons(degree, slopes):
    """Every reason a slope sequence fails degree-d admissibility: end
    slopes d, all slopes >= 1, no zero jump, total ramification 2d-2.
    The list is empty exactly when the sequence is admissible."""
    if not slopes:
        return ["empty slope sequence"]
    reasons = []
    if slopes[0] != degree or slopes[-1] != degree:
        reasons.append("end slopes (%s, %s) differ from degree %d" % (
            _bounded_echo(slopes[0]), _bounded_echo(slopes[-1]), degree))
    if min(slopes) < 1:
        reasons.append("non-positive slope present")
    jumps = list(map(sub, slopes[1:], slopes))
    if 0 in jumps:
        reasons.append("zero jump (repeated consecutive slope)")
    total = sum(map(abs, jumps))
    if total != 2 * degree - 2:
        reasons.append("total ramification %s != %d"
                       % (_bounded_echo(total), 2 * degree - 2))
    return reasons


class SlopeSequence(Record):
    degree: int
    slopes: tuple

    def __init__(self, degree, slopes):
        slopes = tuple(slopes)
        if not all(type(s) is int for s in slopes):
            for s in slopes:  # an int but not a bool, or a Fraction equal to one
                if isinstance(s, bool) or not isinstance(s, (int, Fraction)) or s.denominator != 1:
                    raise ValueError("non-integer slope: " + _bounded_echo(s))
            slopes = tuple(map(int, slopes))
        reasons = _admissibility_reasons(degree, slopes)
        if reasons:  # each reason is short, but four of them need not be
            raise ValueError(_bounded_echo("; ".join(reasons), str, 160))
        super().__init__(degree, slopes)

    @property
    def k(self):
        return len(self.slopes) - 1

    @cached_property
    def jumps(self):
        """Slope change at each break, kept in __dict__ on first use: not a field."""
        return tuple(b - a for a, b in zip(self.slopes, self.slopes[1:]))

    def jumps_share_sign(self, i) -> bool:
        """Whether the jumps at breaks i and i+1 (gap i, 1-based) share a sign,
        so the breaks can collide without reducing the total variation."""
        jumps = self.jumps   # no jump is zero
        return (jumps[i - 1] > 0) == (jumps[i] > 0)

    def reversed_(self) -> "SlopeSequence":
        return SlopeSequence(self.degree, tuple(reversed(self.slopes)))


class CombinatorialType(Record):
    canonical: SlopeSequence
    palindromic: bool
    label: str | None
    representative: SlopeSequence

    @property
    def k(self):
        return self.canonical.k


# Degree-3 registry: labels fixed as I-V for the four-break types in
# their standard printed order, VI-VIII for three breaks, IX-X for two.
_REGISTRY_D3 = (
    ("I", (3, 4, 5, 4, 3)),
    ("II", (3, 4, 3, 4, 3)),
    ("III", (3, 4, 3, 2, 3)),
    ("IV", (3, 2, 3, 2, 3)),
    ("V", (3, 2, 1, 2, 3)),
    ("VI", (3, 5, 4, 3)),
    ("VII", (3, 1, 2, 3)),
    ("VIII", (3, 4, 2, 3)),
    ("IX", (3, 5, 3)),
    ("X", (3, 1, 3)),
)


def _is_palindrome(t):
    """Whether a sequence reads the same reversed."""
    return t == t[::-1]


def _reversal_min(*parts):
    """The lexicographic minimum of the sequences `parts` and their
    simultaneous reversal, and whether that minimum is the reversal.  A
    palindromic tie keeps the forward orientation."""
    backward = tuple([p[::-1] for p in parts])
    if backward < parts:
        return backward, True
    return parts, False


# Label of each orientation of each registry sequence.  Its fourteen keys
# are exactly the admissible degree-3 slope tuples; an admissible tuple
# starts with its degree, so it has a label if and only if its degree is 3.
_D3_LABELS = {s: label for label, slopes in _REGISTRY_D3
              for s in (slopes, slopes[::-1])}


def canonical_type(seq: SlopeSequence) -> CombinatorialType:
    """Reversal class of a sequence: lexicographic minimum of it and its reversal."""
    (canon,), reversed_ = _reversal_min(seq.slopes)
    label = _D3_LABELS.get(seq.slopes)
    return CombinatorialType(SlopeSequence(seq.degree, canon) if reversed_ else seq,
                             _is_palindrome(seq.slopes), label, seq)


# The ten registry types, built once, keyed by label in registry order.
_TYPES_D3 = {lab: canonical_type(SlopeSequence(3, s)) for lab, s in _REGISTRY_D3}


def registry_d3():
    """The ten labeled degree-3 types, in registry order I-X."""
    return list(_TYPES_D3.values())


def registry_sequence(label: str) -> SlopeSequence:
    if label not in _TYPES_D3:
        raise KeyError("unknown degree-3 type label: " + _bounded_echo(label))
    return _TYPES_D3[label].representative


def _moves(degree):
    """moves[s][remaining]: each next slope t after slope s, ascending, with
    the budget it leaves.  A step spends |t - s| of the variation budget and
    must leave enough to return to slope d: |t - s| + |d - t| <= remaining,
    solved for t; the bounds are whole because remaining - |s - d| stays
    even on every entry the search reads."""
    budget = 2 * degree - 2
    return [[[(t, rem - abs(t - s))
              for t in range(max(1, (s + degree - rem) // 2), (s + degree + rem) // 2 + 1)
              if t != s]
             for rem in range(budget + 1)]
            for s in range(2 * degree)]   # no slope exceeds d + (d - 1)


def _extend(out, moves, max_breaks, slopes, s, remaining):
    """Append to `out` every canonical admissible completion, with at most
    max_breaks breaks in all, of `slopes`, which ends at slope s with
    `remaining` > 0 of the budget left.  A step that spends all of it ends
    at slope d and completes the sequence."""
    for t, left in moves[s][remaining]:
        q = slopes + (t,)
        if left == 0:
            if q <= q[::-1]:
                out.append(q)
        elif len(q) <= max_breaks:   # room for the break at t and one more
            _extend(out, moves, max_breaks, q, t, left)


def canonical_sequences(degree: int, max_breaks: int | None = None):
    """The canonical slope tuple of every degree-d type, up to reversal.

    Search space is finite since each jump contributes at least 1 to the
    variation budget 2d-2.  A recursive search appends each admissible
    slope tuple that is no greater than its reversal to one list, so each
    reversal class is kept once, in its canonical orientation.  Order: k
    descending, then lexicographic.  The search tries each next slope in
    ascending order and no complete tuple is a prefix of another, so each
    length comes out in lexicographic order and a stable sort by length
    alone gives the full order.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    budget = 2 * degree - 2
    cap = budget if max_breaks is None else min(budget, max_breaks)
    # degree 1's one sequence, (1,), has no break: no step of the search makes it
    found = [(degree,)] if budget == 0 and cap >= 0 else []
    _extend(found, _moves(degree), cap, (degree,), degree, budget)
    found.sort(key=len, reverse=True)
    return found


def enumerate_types(degree: int, max_breaks: int | None = None):
    """All combinatorial types of `degree` up to reversal, in `canonical_sequences` order."""
    return [canonical_type(SlopeSequence(degree, q))
            for q in canonical_sequences(degree, max_breaks)]
