"""The CLI's contract over its own formats and over arbitrary JSON.

Every format a subcommand writes is accepted back by the subcommands that
read it, and every JSON input to a file-reading subcommand, like every
argument value of the three that read no file, ends in exit 0, 1 or 2
with exactly one short JSON value on the stream its exit code names.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmaps import registry_d3
from conftest import README_MAP, README_NET, README_POINT, call

HALF_SLOPE_NET = {"base_slope": "1/2", "base_bias": "0",
                  "units": [{"w": "1", "b": "-1", "a": "1"}]}


def written(argv, obj):
    """The JSON payload of a call that must succeed."""
    code, out, err = call([*argv, "-", "--json"], obj)
    assert (code, err) == (0, ""), out + err
    return json.loads(out)


def readers(*argvs, code=0):
    return [(argv, code) for argv in argvs]


# (writer argv, writer input, the part of its output that is the value,
# [(reader argv, its exit code)])
ROUND_TRIPS = [
    (["from-relu"], README_NET, "map", readers(["classify"], ["eval", "--at", "2"], ["to-relu"])),
    # a non-integer slope is written as a rational string; readers see an
    # invalid map, not malformed input
    (["from-relu"], HALF_SLOPE_NET, "map",
     readers(["classify"]) + readers(["eval", "--at", "2"], ["to-relu"], code=1)),
    (["to-relu"], README_MAP, None, readers(["from-relu"], ["symmetry"])),
    (["degenerate", "--merge", "1"], README_POINT, None, readers(["aut"], ["stratum"], ["curve"])),
    (["tropicalize"], {"p": ["1", "-inf", "2", "0"], "q": ["0", "-1/2"]}, None,
     readers(["classify"])),
]


@pytest.mark.parametrize("writer, obj, part, reader, exit_code", [
    pytest.param(w, obj, part, r, code, id="%s-%d-%s" % (w[0], i, r[0]))
    for i, (w, obj, part, rs) in enumerate(ROUND_TRIPS) for r, code in rs])
def test_written_formats_read_back(writer, obj, part, reader, exit_code):
    value = written(writer, obj)
    value = value if part is None else value[part]
    code, out, err = call([reader[0], "-", *reader[1:], "--json"], value)
    assert (code, err) == (exit_code, ""), out + err
    if code == 1:
        assert json.loads(out)["error"] == "invalid-map"


# --- any JSON in: exit 0, 1 or 2 and one short JSON object out --------------

LONG_INT = st.builds(lambda digit, n, sign: sign * int(str(digit) * n),
                     st.integers(1, 9), st.integers(1, 4000), st.sampled_from((1, -1)))
RATIONAL = st.one_of(st.integers(-3, 6), st.fractions(max_denominator=9), LONG_INT)
RATIONAL_TEXT = RATIONAL.map(str)
POSITIVE_TEXT = st.one_of(st.fractions(min_value=Fraction(1, 9), max_denominator=9),
                          LONG_INT.map(abs)).map(str)
# Any JSON value, a string (where a list belongs) and a long one included.
JUNK_SCALAR = st.one_of(st.text(max_size=4), st.floats(), st.sampled_from(
    ["7" * 5000, "inf", "0/0", "1.5", True, False, None, 0, -1, 10 ** 4000]))
JUNK = st.one_of(JUNK_SCALAR, st.lists(JUNK_SCALAR, max_size=3),
                 st.dictionaries(st.text(max_size=2), JUNK_SCALAR, max_size=2))
ADMISSIBLE = st.sampled_from([list(t.representative.slopes) for t in registry_d3()])
SLOPES = st.one_of(
    ADMISSIBLE, ADMISSIBLE,
    st.lists(st.one_of(st.integers(-1, 6), LONG_INT, st.just("1/2")),
             min_size=1, max_size=6))


def sized(elements, n):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def maps(draw):
    slopes = draw(SLOPES)
    breaks = sorted(draw(st.lists(RATIONAL, min_size=len(slopes) - 1,
                                  max_size=len(slopes) - 1, unique=True)))
    return {"breaks": [str(x) for x in breaks], "slopes": slopes,
            "anchor": draw(RATIONAL_TEXT)}


@st.composite
def points(draw):
    slopes = draw(SLOPES)
    gap = st.one_of(POSITIVE_TEXT, st.sampled_from(["0", "1", "inf"]))
    return {"slopes": slopes, "gaps": draw(sized(gap, max(len(slopes) - 2, 0))),
            "position": draw(RATIONAL_TEXT)}


@st.composite
def compact_points(draw):
    slopes = draw(st.one_of(ADMISSIBLE.filter(lambda s: len(s) == 5), SLOPES))
    gap = st.one_of(POSITIVE_TEXT, st.sampled_from(["0", "inf"]))
    return {"slopes": slopes, "gaps": draw(sized(gap, 3))}


UNIT = st.fixed_dictionaries({"w": st.integers(-2, 2).map(str), "b": RATIONAL_TEXT,
                              "a": RATIONAL_TEXT})
NETS = st.fixed_dictionaries({"base_slope": RATIONAL_TEXT, "base_bias": RATIONAL_TEXT,
                              "units": st.lists(UNIT, max_size=5)})
COEFFICIENTS = st.lists(st.one_of(RATIONAL_TEXT, st.just("-inf")),
                        min_size=1, max_size=5)
POLYNOMIALS = st.fixed_dictionaries({"p": COEFFICIENTS, "q": COEFFICIENTS})


@st.composite
def garbled(draw, well_formed):
    """A well-formed input, or one with a field replaced by any JSON value
    or left out, or any JSON value in its place."""
    obj = draw(well_formed)
    how = draw(st.sampled_from(["keep", "replace", "drop", "whole"]))
    if how == "whole":
        return draw(JUNK)
    if how != "keep":
        key = draw(st.sampled_from(sorted(obj)))
        if how == "drop":
            del obj[key]
        else:
            obj[key] = draw(JUNK)
    return obj


AT = st.sampled_from(["2", "-1/2", "inf", "-inf", "x"]).map(lambda v: ["--at=" + v])
MERGE = st.integers(-1, 4).map(lambda i: ["--merge=%d" % i])
NONE = st.just([])

# The eleven subcommands that read a file: (options, well-formed inputs).
READERS = {
    "classify": (NONE, maps()), "eval": (AT, maps()), "to-relu": (NONE, maps()),
    "aut": (NONE, points()), "stratum": (NONE, points()),
    "degenerate": (MERGE, points()), "curve": (NONE, points()),
    "classify-compact": (NONE, compact_points()),
    "from-relu": (NONE, NETS), "symmetry": (NONE, NETS),
    "tropicalize": (NONE, POLYNOMIALS),
}


@st.composite
def reader_calls(draw):
    name = draw(st.sampled_from(sorted(READERS)))
    options, inputs = READERS[name]
    return [name, "-", *draw(options), "--json"], json.dumps(draw(garbled(inputs)))


@settings(max_examples=200, deadline=None)
@given(argv_stdin=reader_calls())
@example(argv_stdin=(["aut", "-", "--json"],
                     json.dumps({"slopes": [3, 4, 5, 4, int("7" * 4000)],
                                 "gaps": ["1", "1", "1"], "position": "0"})))
# four admissibility reasons, three of them echoing 4,000-digit numbers
@example(argv_stdin=(["aut", "-", "--json"],
                     json.dumps({"slopes": [-int("7" * 4000), -int("7" * 4000),
                                            int("7" * 4000)],
                                 "gaps": ["1"], "position": "0"})))
# an invalid map with a problem at every break
@example(argv_stdin=(["eval", "-", "--at=2", "--json"],
                     json.dumps({"breaks": [str(x) for x in range(20)],
                                 "slopes": [0] * 21, "anchor": "0"})))
def test_any_json_input_keeps_the_contract(argv_stdin):
    payload = shown(*call(*argv_stdin))
    assert isinstance(payload, dict)
    assert_short_texts(payload)


def shown(code, out, err):
    """The one JSON value a call printed, on the stream its exit code names."""
    assert code in (0, 1, 2)
    text, silent = (err, out) if code == 2 else (out, err)
    assert silent == "" and "Traceback" not in text
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


def assert_short_texts(payload):
    texts = [payload.get("detail", ""), *payload.get("problems", []),
             *payload.get("reasons", [])]
    assert all(len(t) <= 200 for t in texts), texts


# --- any argument value in, for the three subcommands that read no file -----

# Degrees 6 to 8 are valid too, but each takes 0.1 to 3 s to list.
DEGREE = st.one_of(st.integers(-2, 5), st.integers(9, 10 ** 6),
                   LONG_INT.filter(lambda d: not 5 < d < 9))
CAP = st.one_of(st.integers(-2, 9), LONG_INT)
NUMBERS = st.lists(st.one_of(RATIONAL_TEXT, st.just("0")), min_size=2, max_size=5).map(",".join)
TEXT = st.one_of(st.text(max_size=12), NUMBERS)
LABEL = st.one_of(st.text(max_size=6), st.sampled_from([t.label for t in registry_d3()]))


@st.composite
def no_file_calls(draw):
    name = draw(st.sampled_from(["types", "hurwitz", "strata"]))
    if name == "types":
        options = ["--degree=%d" % draw(DEGREE)]
        options += draw(st.one_of(NONE, CAP.map(lambda c: ["--max-breaks=%d" % c])))
    elif name == "hurwitz":
        options = ["--%s=%s" % (draw(st.sampled_from(["branch", "distances"])), draw(TEXT))]
    else:
        options = ["--type=" + draw(LABEL)]
    return [name, *options, "--json"]


@settings(max_examples=45, deadline=None)   # about 15 per subcommand
@given(argv=no_file_calls())
@example(argv=["strata", "--type=" + "Z" * 5000, "--json"])
@example(argv=["hurwitz", "--branch=", "--json"])
def test_any_argument_value_keeps_the_contract(argv):
    payload = shown(*call(argv, ""))
    if argv[0] == "types" and isinstance(payload, list):
        assert all(isinstance(row, dict) for row in payload)
    else:
        assert isinstance(payload, dict)
        assert_short_texts(payload)
