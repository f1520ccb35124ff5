"""The `*_from_json` decoders called directly, on any JSON-shaped value:
each returns a value or raises InputError with a short message, but for
the compactified point of a type with fewer than four breaks, which is
well-formed and raises the coded DomainError not-a-maximal-type."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmaps import serialize
from tropmaps.errors import DomainError, InputError

DECODERS = [serialize.map_from_json, serialize.point_from_json,
            serialize.compact_point_from_json, serialize.network_from_json,
            serialize.polynomial_from_json]

# Every field name the schemas read, so that drawn objects reach the
# constructors and not only the missing-field check.
KEYS = st.sampled_from(["breaks", "slopes", "anchor", "gaps", "position", "units",
                        "w", "b", "a", "base_slope", "base_bias"]) | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-5, 5) | st.floats()
           | st.sampled_from(["0", "3", "-1/2", "1/0", "inf", "-inf", "x", "",
                              "7" * 5000, int("7" * 4000)]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=6)
                    | st.dictionaries(KEYS, inner, max_size=6), max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(decode=st.sampled_from(DECODERS), value=JSON)
@example(decode=serialize.compact_point_from_json, value={"slopes": [3, 5, 3], "gaps": ["1"]})
@example(decode=serialize.map_from_json, value={"breaks": [], "slopes": [], "anchor": "0"})
def test_decoders_return_or_raise_short_input_errors(decode, value):
    try:
        decode(value)
    except InputError as exc:
        assert len(str(exc)) <= 200, str(exc)
    except DomainError as exc:
        assert decode is serialize.compact_point_from_json
        assert exc.code == "not-a-maximal-type"


@pytest.mark.parametrize("value", ["000", {"0": 1, "1": 2}, 7, None],
                         ids=["string", "dict", "int", "null"])
def test_polynomial_must_be_a_json_list(value):
    with pytest.raises(InputError, match="JSON list"):
        serialize.polynomial_from_json(value)
