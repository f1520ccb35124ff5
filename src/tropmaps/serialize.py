"""JSON interchange schemas for maps, moduli points, networks and results.

Rationals travel as lowest-terms strings ("p/q" or a plain integer),
slopes as JSON integers; the non-integer slope a map converted from a
network can have travels as a rational string.  Every encoder builds its
dict in a fixed key order so serialized output is byte-stable; every
decoder raises InputError (alias SchemaError) on malformed input.
"""

from __future__ import annotations

from .compact import CompactifiedPoint
from .errors import InputError, decoder
from .moduli import ModuliPoint
from .plcore import TropicalMap, TropicalPolynomial
from .rational import _bounded_echo, format_rational, parse_extended
from .relu import ReLUNetwork
from .types_enum import SlopeSequence


SchemaError = InputError


def _require(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError("missing field %r" % key)
    return obj[key]


def _int_slopes(values):
    slopes = []
    for s in values:
        if isinstance(s, bool) or not isinstance(s, int):
            raise SchemaError("slopes must be JSON integers, got " + _bounded_echo(s))
        slopes.append(s)
    return tuple(slopes)


def map_to_json(m: TropicalMap) -> dict:
    return {
        "breaks": [format_rational(x) for x in m.break_points],
        "slopes": [s if isinstance(s, int) else format_rational(s) for s in m.slopes],
        "anchor": format_rational(m.anchor_value),
    }


@decoder
def map_from_json(obj) -> TropicalMap:
    return TropicalMap(_require(obj, "breaks"),
                       _int_slopes(_require(obj, "slopes")),
                       _require(obj, "anchor"))


def point_to_json(p: ModuliPoint) -> dict:
    return {
        "slopes": list(p.seq.slopes),
        "gaps": [format_rational(g) for g in p.gaps],
        "position": format_rational(p.position),
    }


@decoder
def point_from_json(obj) -> ModuliPoint:
    return ModuliPoint(SlopeSequence(3, _int_slopes(_require(obj, "slopes"))),
                       _require(obj, "gaps"), _require(obj, "position"))


@decoder
def compact_point_from_json(obj) -> CompactifiedPoint:
    seq = SlopeSequence(3, _int_slopes(_require(obj, "slopes")))
    # Parsed here as well as in the constructor: JSON Infinity loads as the
    # float inf, which the constructor takes from python callers, while the
    # schema's infinite gap is the string "inf".
    gaps = tuple(parse_extended(g) for g in _require(obj, "gaps"))
    return CompactifiedPoint(seq, gaps)


def network_to_json(net: ReLUNetwork) -> dict:
    return {
        "base_slope": format_rational(net.base_slope),
        "base_bias": format_rational(net.base_bias),
        "units": [{"w": format_rational(w), "b": format_rational(b),
                   "a": format_rational(a)} for w, b, a in net.units],
    }


@decoder
def network_from_json(obj) -> ReLUNetwork:
    units = tuple((_require(u, "w"), _require(u, "b"), _require(u, "a"))
                  for u in _require(obj, "units"))
    return ReLUNetwork(_require(obj, "base_slope"), _require(obj, "base_bias"), units)


@decoder
def polynomial_from_json(values) -> TropicalPolynomial:
    return TropicalPolynomial(tuple(parse_extended(c) for c in values))
