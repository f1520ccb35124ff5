"""Combinatorial types of admissible slope sequences.

A degree-d sequence (s_0,...,s_k) has s_0 = s_k = d, positive slopes,
no repeated consecutive slope, and total variation 2d-2.  Two sequences
related by reversal form one combinatorial type; in degree 3 there are
exactly ten, labeled I-X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SlopeSequence:
    degree: int
    slopes: tuple

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(int(s) for s in self.slopes))
        d, s = self.degree, self.slopes
        if d < 1:
            raise ValueError("degree must be positive")
        if not s or s[0] != d or s[-1] != d:
            raise ValueError("end slopes must equal the degree")
        if any(x < 1 for x in s):
            raise ValueError("slopes must be positive")
        if any(a == b for a, b in zip(s, s[1:])):
            raise ValueError("consecutive slopes must differ")
        if sum(abs(b - a) for a, b in zip(s, s[1:])) != 2 * d - 2:
            raise ValueError("total variation must be 2d-2")

    @property
    def k(self):
        return len(self.slopes) - 1

    @property
    def jumps(self):
        return tuple(b - a for a, b in zip(self.slopes, self.slopes[1:]))

    def jumps_share_sign(self, i) -> bool:
        """Whether the jumps at breaks i and i+1 (gap i, 1-based) share a sign,
        so the breaks can collide without reducing the total variation."""
        jumps = self.jumps
        return (jumps[i - 1] > 0) == (jumps[i] > 0)

    def reversed_(self) -> "SlopeSequence":
        return SlopeSequence(self.degree, tuple(reversed(self.slopes)))


@dataclass(frozen=True)
class JumpSequence:
    degree: int
    jumps: tuple

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(int(j) for j in self.jumps))
        d, js = self.degree, self.jumps
        if any(j == 0 for j in js):
            raise ValueError("jumps must be nonzero")
        if sum(abs(j) for j in js) != 2 * d - 2:
            raise ValueError("total variation must be 2d-2")
        if sum(js) != 0:
            raise ValueError("jumps must sum to zero")
        s = d
        for j in js:
            s += j
            if s < 1:
                raise ValueError("partial slope drops below 1")

    def slope_sequence(self) -> SlopeSequence:
        slopes = [self.degree]
        for j in self.jumps:
            slopes.append(slopes[-1] + j)
        return SlopeSequence(self.degree, tuple(slopes))


@dataclass(frozen=True)
class CombinatorialType:
    canonical: SlopeSequence
    palindromic: bool
    label: Optional[str] = None
    representative: Optional[SlopeSequence] = None

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


def _canonical_slopes(slopes):
    rev = tuple(reversed(slopes))
    return min(slopes, rev)


_D3_LABEL_BY_CANONICAL = {
    _canonical_slopes(slopes): label for label, slopes in _REGISTRY_D3
}


def canonical_type(seq: SlopeSequence) -> CombinatorialType:
    """Reversal class of a sequence: lexicographic minimum of it and its reversal."""
    canon = _canonical_slopes(seq.slopes)
    palindromic = _is_palindrome(seq.slopes)
    label = None
    if seq.degree == 3:
        label = _D3_LABEL_BY_CANONICAL.get(canon)
    return CombinatorialType(SlopeSequence(seq.degree, canon), palindromic,
                             label, representative=seq)


def registry_d3():
    """The ten labeled degree-3 types, in registry order I-X."""
    out = []
    for label, slopes in _REGISTRY_D3:
        seq = SlopeSequence(3, slopes)
        canon = SlopeSequence(3, _canonical_slopes(slopes))
        out.append(CombinatorialType(canon, _is_palindrome(slopes),
                                     label, representative=seq))
    return out


def registry_sequence(label: str) -> SlopeSequence:
    for lab, slopes in _REGISTRY_D3:
        if lab == label:
            return SlopeSequence(3, slopes)
    raise KeyError("unknown degree-3 type label: %r" % label)


def _search_jumps(degree, max_breaks):
    """Depth-first search over jump sequences with the variation budget."""
    budget = 2 * degree - 2
    found = []

    def extend(jumps, slope, used):
        if used == budget and slope == degree:
            found.append(tuple(jumps))
        if len(jumps) >= max_breaks or used >= budget:
            return
        remaining = budget - used
        for j in range(-remaining, remaining + 1):
            if j == 0 or slope + j < 1:
                continue
            # must still be able to return to the degree slope
            if abs(j) + abs(degree - (slope + j)) > remaining:
                continue
            jumps.append(j)
            extend(jumps, slope + j, used + abs(j))
            jumps.pop()

    if budget == 0:
        return [()]
    extend([], degree, 0)
    return found


def enumerate_types(degree: int, max_breaks: Optional[int] = None):
    """All combinatorial types of the given degree, up to reversal.

    Search space is finite since each jump contributes at least 1 to the
    variation budget 2d-2.  Output order: k descending, then canonical
    sequences lexicographically.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    cap = 2 * degree - 2
    if max_breaks is not None:
        cap = min(cap, max_breaks)
    seen = {}
    for jumps in _search_jumps(degree, cap):
        seq = JumpSequence(degree, jumps).slope_sequence() if jumps \
            else SlopeSequence(degree, (degree,))
        canon = _canonical_slopes(seq.slopes)
        if canon not in seen:
            seen[canon] = canonical_type(SlopeSequence(degree, canon))
    return sorted(seen.values(), key=lambda t: (-t.k, t.canonical.slopes))
