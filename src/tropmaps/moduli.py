"""Moduli coordinates, automorphisms, stratification and degenerations.

A point of the degree-3 moduli space is a slope sequence together with
the gap lengths between consecutive break points and the position of the
first break point; the anchor value is quotiented away (post-composition
by target translations).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, InputError
from .plcore import TropicalMap, _anchor_point
from .rational import parse_exactly, parse_rational
from .record import Record
from .types_enum import SlopeSequence, _is_palindrome

TRIVIAL = "trivial"
Z2 = "z2"


class InvalidDegeneration(DomainError):
    """Merging break points whose jumps cancel leaves the moduli space."""
    code = "invalid-degeneration"


class ModuliPoint(Record):
    seq: SlopeSequence
    gaps: tuple
    position: Fraction

    def __init__(self, seq, gaps, position):
        position = parse_rational(position)
        gaps = parse_exactly(gaps, seq.k - 1, "need k-1 gap lengths", parse_rational)
        if any(g <= 0 for g in gaps):
            raise ValueError("gap lengths must be positive")
        super().__init__(seq, gaps, position)

    def break_points(self):
        return tuple(accumulate(self.gaps, initial=self.position))


class AutGroup(Record):
    kind: str  # TRIVIAL or Z2
    reflection_center: Fraction | None
    target_shift: Fraction | None


class StratumDescriptor(Record):
    aut: str
    cell_dimension: int
    symmetric_locus: bool
    label: str  # generic | symmetric | symmetric-boundary | intermediate


class WeightedTropicalCurve(Record):
    """Metric path graph underlying a map: break-point vertices with
    ramification weights, bounded edges with (length, dilation), and two
    infinite leaves carrying the end dilations."""
    finite_vertices: tuple  # (position, weight)
    bounded_edges: tuple    # (length, dilation)
    leaf_dilations: tuple   # (s_0, s_k)


def moduli_point(m: TropicalMap) -> ModuliPoint:
    """Forget the anchor (target-translation quotient) and pass to gap coordinates."""
    xs = m.break_points
    try:
        return ModuliPoint(SlopeSequence(3, m.slopes),
                           tuple(b - a for a, b in zip(xs, xs[1:])), _anchor_point(xs))
    except ValueError as exc:
        raise DomainError("inadmissible map: %s" % exc, code="inadmissible-map") from None


def representative_map(p: ModuliPoint) -> TropicalMap:
    """The anchor-0 map of a moduli point; inverse to moduli_point."""
    return TropicalMap(p.break_points(), p.seq.slopes, Fraction(0))


def automorphisms(p: ModuliPoint) -> AutGroup:
    """Z/2 exactly when both the slope sequence and the gap vector are palindromic.

    The reflection fixes the midpoint c of the outer break points and
    satisfies phi(2c - x) = -phi(x) + b, b = sum s_i*l_i over interior slopes
    and gaps; for four breaks b = d1+d2+d3 (README point: 4 + 10 + 4 = 18).
    """
    if not (_is_palindrome(p.seq.slopes) and _is_palindrome(p.gaps)):
        return AutGroup(TRIVIAL, None, None)
    xs = p.break_points()
    shift = sum(s * l for s, l in zip(p.seq.slopes[1:-1], p.gaps))
    return AutGroup(Z2, (xs[0] + xs[-1]) / 2, shift)


def stratum(p: ModuliPoint) -> StratumDescriptor:
    kind, k = automorphisms(p).kind, p.seq.k
    label = {2: "symmetric-boundary", 3: "intermediate"}.get(
        k, "symmetric" if kind == Z2 else "generic")
    return StratumDescriptor(kind, k, kind == Z2, label)


def degenerate(p: ModuliPoint, i: int) -> ModuliPoint:
    """Collapse gap i (1-based): merge break points x_i and x_{i+1}.

    Valid only when the two jumps at the colliding breaks share a sign,
    so the merged jump keeps the total variation at 4; otherwise the
    limit violates the degree-3 ramification count and the move is
    rejected.
    """
    k = p.seq.k
    if not 1 <= i <= k - 1:
        raise InputError("merge index out of range")
    if not p.seq.jumps_share_sign(i):
        raise InvalidDegeneration(
            "jumps %d and %d cancel; the limit has reduced total variation"
            % p.seq.jumps[i - 1:i + 1])
    slopes = p.seq.slopes[:i] + p.seq.slopes[i + 1:]
    gaps = p.gaps[:i - 1] + p.gaps[i:]
    return ModuliPoint(SlopeSequence(3, slopes), gaps, p.position)


def weighted_curve(p: ModuliPoint) -> WeightedTropicalCurve:
    vertices = tuple(zip(p.break_points(), map(abs, p.seq.jumps)))
    edges = tuple(zip(p.gaps, p.seq.slopes[1:-1]))
    return WeightedTropicalCurve(vertices, edges,
                                 (p.seq.slopes[0], p.seq.slopes[-1]))


def curve_automorphisms(c: WeightedTropicalCurve) -> str:
    """Z/2 when the (length, dilation) edges, vertex weights and leaves are palindromic."""
    weights = tuple(w for _, w in c.finite_vertices)
    if all(_is_palindrome(t) for t in (c.bounded_edges, weights, c.leaf_dilations)):
        return Z2
    return TRIVIAL
