"""JSON interchange schemas for maps, moduli points, networks and results.

Rationals travel as lowest-terms strings ("p/q" or an integer), slopes as
JSON integers or, in a map converted from a network, as rational strings.
Encoders fix their key order, so output is byte-stable.  Decoders check
the JSON shape and constructors the values: a failure is InputError, but
for the DomainError not-a-maximal-type of a compactified point with k != 4.
"""

from __future__ import annotations

from .compact import CompactifiedPoint
from .errors import InputError, decoder
from .moduli import ModuliPoint
from .plcore import TropicalMap, TropicalPolynomial
from .rational import format_rational, parse_rational
from .relu import ReLUNetwork
from .types_enum import SlopeSequence


SchemaError = InputError


def _require(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError("missing field %r" % key)
    return obj[key]


def _list(obj, key):
    """A list-valued field: a JSON string is not read as its characters."""
    value = _require(obj, key)
    if not isinstance(value, list):
        raise SchemaError("field %r must be a JSON list" % key)
    return value


def _no_floats(values):
    """A JSON list of extended rationals; each float in it (Infinity, NaN, 1.5:
    a python caller's value only) raises parse_rational's error when reached."""
    return (parse_rational(v) if isinstance(v, float) else v for v in values)


def map_to_json(m: TropicalMap) -> dict:
    return {
        "breaks": [format_rational(x) for x in m.break_points],
        "slopes": [s if isinstance(s, int) else format_rational(s) for s in m.slopes],
        "anchor": format_rational(m.anchor_value),
    }


@decoder
def map_from_json(obj) -> TropicalMap:
    return TropicalMap(_list(obj, "breaks"), _list(obj, "slopes"),
                       _require(obj, "anchor"))


def point_to_json(p: ModuliPoint) -> dict:
    return {
        "slopes": list(p.seq.slopes),
        "gaps": [format_rational(g) for g in p.gaps],
        "position": format_rational(p.position),
    }


@decoder
def point_from_json(obj) -> ModuliPoint:
    return ModuliPoint(SlopeSequence(3, _list(obj, "slopes")),
                       _list(obj, "gaps"), _require(obj, "position"))


@decoder
def compact_point_from_json(obj) -> CompactifiedPoint:
    return CompactifiedPoint(SlopeSequence(3, _list(obj, "slopes")),
                             _no_floats(_list(obj, "gaps")))


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
                  for u in _list(obj, "units"))
    return ReLUNetwork(_require(obj, "base_slope"), _require(obj, "base_bias"), units)


@decoder
def polynomial_from_json(values) -> TropicalPolynomial:
    if not isinstance(values, list):
        raise SchemaError("a polynomial must be a JSON list of coefficients")
    return TropicalPolynomial(_no_floats(values))
