"""Paths that receive an already checked value do not check or build it again."""

import json
import math
from fractions import Fraction
from functools import cached_property

import pytest

from tropmaps import (BranchConfiguration, compact, face_lattice, fiber, hurwitz, moduli,
                      moduli_point, plcore, rational, registry_sequence, serialize, types_enum)
from tropmaps.errors import InputError
from conftest import README_MAP, README_NET, README_POINT, call


@pytest.fixture
def jump_reads(monkeypatch):
    """The slopes of every SlopeSequence whose jumps are derived while the test
    runs; a sequence that has derived them already reads its kept tuple."""
    derived = []
    jumps = types_enum.SlopeSequence.__dict__["jumps"].func
    recorded = cached_property(lambda seq: derived.append(seq.slopes) or jumps(seq))
    recorded.__set_name__(types_enum.SlopeSequence, "jumps")
    monkeypatch.setattr(types_enum.SlopeSequence, "jumps", recorded)
    return derived


def test_face_lattice_builds_no_slope_sequence(spy, jump_reads):
    constructions = spy(types_enum.SlopeSequence, "__init__")
    points = spy(compact.CompactifiedPoint, "__init__")
    for label in ("I", "II", "III", "IV", "V"):
        seq = types_enum.SlopeSequence(3, registry_sequence(label).slopes)
        del constructions[:], points[:], jump_reads[:]
        assert len(face_lattice(seq)) == len(face_lattice(seq)) == 27
        # the second lattice reads the jumps the first one derived
        assert constructions == [] and len(points) <= 1 and jump_reads == [seq.slopes]


def test_strata_command_builds_at_most_one_point(spy):
    points = spy(compact.CompactifiedPoint, "__init__")
    code, out, _ = call(["strata", "--type", "I", "--json"])
    assert code == 0 and len(json.loads(out)["strata"]) == 27
    assert len(points) <= 1


def test_fiber_builds_no_slope_sequence(spy):
    constructions = spy(types_enum.SlopeSequence, "__init__")
    b = BranchConfiguration((4, 10, 4))
    assert len(fiber(b)) == 6
    assert constructions == []


@pytest.mark.parametrize("argv", [["types", "--degree", "3", "--json"],
                                  ["strata", "--type", "I", "--json"]])
def test_degree3_table_commands_build_no_slope_sequence(spy, argv):
    constructions = spy(types_enum.SlopeSequence, "__init__")
    assert call(argv)[0] == 0
    assert constructions == []


def test_hurwitz_command_solves_the_fiber_once(spy):
    calls = spy(hurwitz, "fiber")
    assert call(["hurwitz", "--distances", "4,10,4", "--json"])[0] == 0
    assert len(calls) == 1


def classify_readme_map():
    code, out, _ = call(["classify", "-", "--json"], README_MAP)
    assert code == 0 and json.loads(out)["type"] == "I"


def test_classify_validates_once(spy):
    calls = spy(plcore, "validate")
    classify_readme_map()
    assert len(calls) == 1


def test_classify_checks_admissibility_once(spy):
    calls = spy(types_enum, "_admissibility_reasons")
    classify_readme_map()
    assert calls == [(3, (3, 4, 5, 4, 3))]


# The canonical network of the type-III map with breaks 0, 1, 2, 3.
TYPE_III_NET = {"base_slope": "3", "base_bias": "0",
                "units": [{"w": "1", "b": str(-x), "a": str(a)}
                          for x, a in enumerate((1, -1, -1, 1))]}


def test_symmetry_builds_one_slope_sequence(spy):
    constructions = spy(types_enum.SlopeSequence, "__init__")
    code, out, _ = call(["symmetry", "-", "--json"], TYPE_III_NET)
    payload = json.loads(out)
    assert code == 0 and payload["type"] == "III" and payload["gap_condition"] is None
    assert [args[1:] for args in constructions] == [(3, (3, 4, 3, 2, 3))]


def test_moduli_point_leaves_admissibility_to_the_constructors(spy):
    validated, reasoned = spy(plcore, "validate"), spy(types_enum, "_admissibility_reasons")
    p = moduli_point(serialize.map_from_json(README_MAP))
    assert p.seq.slopes == (3, 4, 5, 4, 3)
    assert (len(validated), len(reasoned)) == (0, 1)


def test_symmetry_checks_the_converted_map_once(spy):
    validated, reasoned = spy(plcore, "validate"), spy(types_enum, "_admissibility_reasons")
    code, out, _ = call(["symmetry", "-", "--json"], TYPE_III_NET)
    assert code == 0 and json.loads(out)["type"] == "III"
    # network_to_map's admissibility report, then moduli_point's SlopeSequence
    assert (len(validated), len(reasoned)) == (1, 2)


@pytest.mark.parametrize("command, shown", [("aut", '"kind": "z2"'),
                                            ("stratum", '"aut": "z2"'),
                                            ("curve", '"vertices"')])
def test_point_commands_build_no_map(spy, command, shown):
    maps = spy(plcore.TropicalMap, "__init__")
    code, out, _ = call([command, "-", "--json"], README_POINT)
    assert code == 0 and shown in out
    assert maps == []


def test_symmetry_builds_only_the_converted_map(spy):
    maps = spy(plcore.TropicalMap, "__init__")
    code, out, _ = call(["symmetry", "-", "--json"], README_NET)
    payload = json.loads(out)
    assert code == 0 and payload["aut"] == "z2"
    assert payload["gap_condition"] == {"l1": "1", "l3": "1", "equal": True}
    assert len(maps) == 1


MANY_GAPS = ["1"] * 100000


@pytest.mark.parametrize("decode, obj, message, parsed", [
    (serialize.compact_point_from_json, {"slopes": [3, 4, 5, 4, 3], "gaps": MANY_GAPS},
     "need exactly three extended gap coordinates", 0),
    # the moduli point's one parse is its position
    (serialize.point_from_json, {"slopes": [3, 4, 5, 4, 3], "gaps": MANY_GAPS, "position": "0"},
     "need k-1 gap lengths", 1),
], ids=["compact", "moduli"])
def test_a_wrong_gap_count_parses_no_gap(spy, decode, obj, message, parsed):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    with pytest.raises(InputError, match=message):
        decode(obj)
    assert len(rationals) + len(extendeds) == parsed


def test_three_compact_gaps_are_each_parsed_once(spy):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    p = serialize.compact_point_from_json({"slopes": [3, 4, 5, 4, 3], "gaps": ["0", "2", "inf"]})
    assert p.extended_gaps == (0, 2, rational.POS_INF)
    assert (len(extendeds), len(rationals)) == (3, 2)


@pytest.mark.parametrize("build, parsed", [
    (lambda: BranchConfiguration(["1", "2", "3"]), 3),
    # four points, then the three distances between them in __init__
    (lambda: BranchConfiguration.from_branch_points(["4", "0", "1", "3"]), 4 + 3),
    # k-1 gaps and the position
    (lambda: moduli.ModuliPoint(registry_sequence("I"), ["1", "2", "1"], "0"), 3 + 1),
], ids=["distances", "branch-points", "moduli"])
def test_a_right_count_parses_each_entry_once(spy, build, parsed):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    build()
    assert (len(extendeds), len(rationals)) == (0, parsed)


def test_eval_reads_its_point_once(spy):
    extendeds = spy(rational, "parse_extended")
    assert call(["eval", "-", "--at=1/2", "--json"], README_MAP) == (0, '{"value": "2"}\n', "")
    assert len(extendeds) == 1


def test_n_coefficients_are_each_read_once(spy):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    p = serialize.polynomial_from_json(["0", "-inf", "1/2", "-inf", "3"])
    assert p.coefficients == (0, rational.NEG_INF, Fraction(1, 2), rational.NEG_INF, 3)
    # each finite coefficient is parsed by parse_extended's own parse_rational call
    assert (len(extendeds), len(rationals)) == (5, 3)


def test_a_python_caller_may_pass_inf_but_json_may_not():
    p = compact.CompactifiedPoint(registry_sequence("I"), (1, rational.POS_INF, 1))
    assert p.extended_gaps == (1, rational.POS_INF, 1)
    q = plcore.TropicalPolynomial((rational.NEG_INF, "0"))
    assert q.coefficients == (rational.NEG_INF, 0)
    for gap in (rational.POS_INF, rational.NEG_INF, math.nan):
        with pytest.raises(InputError) as info:
            serialize.compact_point_from_json({"slopes": [3, 4, 5, 4, 3], "gaps": ["1", gap, "1"]})
        assert str(info.value) == "not a rational: %s" % gap
    # a JSON float is a shape fault: it is reported before the gap count
    with pytest.raises(InputError, match="^not a rational: inf$"):
        serialize.compact_point_from_json({"slopes": [3, 4, 5, 4, 3], "gaps": [rational.POS_INF]})
    for coefficients, bad in ((["0", rational.NEG_INF], "-inf"), ([rational.NEG_INF, "0"], "-inf"),
                              (["0", math.nan], "nan")):
        with pytest.raises(InputError) as info:
            serialize.polynomial_from_json(coefficients)
        assert str(info.value) == "not a rational: " + bad


MANY_ENTRIES = ["1"] * 60000


@pytest.mark.parametrize("build, message", [
    (lambda: BranchConfiguration(MANY_ENTRIES), "need exactly three distances"),
    (lambda: BranchConfiguration.from_branch_points(MANY_ENTRIES),
     "need exactly four branch points"),
], ids=["distances", "branch-points"])
def test_a_wrong_branch_count_parses_no_entry(spy, build, message):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    with pytest.raises(ValueError, match=message):
        build()
    assert extendeds == rationals == []


@pytest.mark.parametrize("option, message", [("--distances", "need exactly three distances"),
                                             ("--branch", "need exactly four branch points")])
def test_the_hurwitz_command_counts_before_it_parses(spy, option, message):
    rationals, extendeds = spy(rational, "parse_rational"), spy(rational, "parse_extended")
    code, _, err = call(["hurwitz", option, ",".join(MANY_ENTRIES), "--json"])
    assert code == 2 and json.loads(err)["detail"] == message
    assert extendeds == rationals == []
