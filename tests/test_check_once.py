"""Paths that receive an already checked value do not check or build it again."""

import io
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from tropmaps import (BranchConfiguration, cli, compact, face_lattice, fiber, hurwitz, moduli,
                      moduli_point, plcore, rational, registry_sequence, serialize, types_enum)
from tropmaps.errors import InputError


@pytest.fixture
def constructions(monkeypatch):
    """The slopes of every SlopeSequence built while the test runs."""
    built = []
    check = types_enum.SlopeSequence.__init__

    def counted(self, degree, slopes):
        built.append(slopes)
        check(self, degree, slopes)
    monkeypatch.setattr(types_enum.SlopeSequence, "__init__", counted)
    return built


@pytest.fixture
def points(monkeypatch):
    """The gaps of every CompactifiedPoint built while the test runs."""
    built = []
    check = compact.CompactifiedPoint.__init__

    def counted(self, seq, extended_gaps):
        built.append(extended_gaps)
        check(self, seq, extended_gaps)
    monkeypatch.setattr(compact.CompactifiedPoint, "__init__", counted)
    return built


@pytest.fixture
def jump_reads(monkeypatch):
    """The slopes of every SlopeSequence whose jumps are read while the test runs."""
    read = []
    jumps = types_enum.SlopeSequence.jumps.fget
    monkeypatch.setattr(types_enum.SlopeSequence, "jumps",
                        property(lambda seq: read.append(seq.slopes) or jumps(seq)))
    return read


def test_face_lattice_builds_no_slope_sequence(constructions, points, jump_reads):
    for label in ("I", "II", "III", "IV", "V"):
        seq = registry_sequence(label)
        del constructions[:], points[:], jump_reads[:]
        assert len(face_lattice(seq)) == 27
        assert constructions == [] and len(points) <= 1 and len(jump_reads) <= 1


def test_strata_command_builds_at_most_one_point(capsys, points):
    assert cli.main(["strata", "--type", "I", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["strata"]) == 27
    assert len(points) <= 1


def test_fiber_builds_no_slope_sequence(constructions):
    b = BranchConfiguration((4, 10, 4))
    assert len(fiber(b)) == 6
    assert constructions == []


@pytest.mark.parametrize("argv", [["types", "--degree", "3", "--json"],
                                  ["strata", "--type", "I", "--json"]])
def test_degree3_table_commands_build_no_slope_sequence(capsys, constructions, argv):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert constructions == []


def test_hurwitz_command_solves_the_fiber_once(capsys, monkeypatch):
    calls = []
    solve = hurwitz.fiber
    monkeypatch.setattr(hurwitz, "fiber", lambda b: calls.append(b) or solve(b))
    assert cli.main(["hurwitz", "--distances", "4,10,4", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


README_MAP = {"breaks": ["0", "1", "3", "4"], "slopes": [3, 4, 5, 4, 3], "anchor": "0"}


def classify_readme_map(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(README_MAP)))
    assert cli.main(["classify", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "I"


def test_classify_validates_once(capsys, monkeypatch):
    calls = []
    check = plcore.validate
    monkeypatch.setattr(plcore, "validate", lambda m: calls.append(m) or check(m))
    classify_readme_map(capsys, monkeypatch)
    assert len(calls) == 1


def test_classify_checks_admissibility_once(capsys, monkeypatch):
    calls = []
    check = types_enum._admissibility_reasons

    def counted(degree, slopes):
        calls.append(slopes)
        return check(degree, slopes)
    for module in (types_enum, plcore):
        monkeypatch.setattr(module, "_admissibility_reasons", counted)
    classify_readme_map(capsys, monkeypatch)
    assert calls == [(3, 4, 5, 4, 3)]


# The canonical network of the type-III map with breaks 0, 1, 2, 3.
TYPE_III_NET = {"base_slope": "3", "base_bias": "0",
                "units": [{"w": "1", "b": str(-x), "a": str(a)}
                          for x, a in enumerate((1, -1, -1, 1))]}


def test_symmetry_builds_one_slope_sequence(capsys, monkeypatch, constructions):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TYPE_III_NET)))
    assert cli.main(["symmetry", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "III" and payload["gap_condition"] is None
    assert constructions == [(3, 4, 3, 2, 3)]


@pytest.fixture
def checks(monkeypatch):
    """How often validate and _admissibility_reasons run while the test runs."""
    counts = Counter()
    validate, reasons = plcore.validate, types_enum._admissibility_reasons

    def counted_validate(m):
        counts["validate"] += 1
        return validate(m)

    def counted_reasons(degree, slopes):
        counts["reasons"] += 1
        return reasons(degree, slopes)
    monkeypatch.setattr(plcore, "validate", counted_validate)
    for module in (types_enum, plcore):
        monkeypatch.setattr(module, "_admissibility_reasons", counted_reasons)
    return counts


def test_moduli_point_leaves_admissibility_to_the_constructors(checks):
    p = moduli_point(serialize.map_from_json(README_MAP))
    assert p.seq.slopes == (3, 4, 5, 4, 3)
    assert (checks["validate"], checks["reasons"]) == (0, 1)


def test_symmetry_checks_the_converted_map_once(capsys, monkeypatch, checks):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TYPE_III_NET)))
    assert cli.main(["symmetry", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "III"
    # network_to_map's admissibility report, then moduli_point's SlopeSequence
    assert (checks["validate"], checks["reasons"]) == (1, 2)


@pytest.fixture
def maps(monkeypatch):
    """The break points of every TropicalMap built while the test runs."""
    built = []
    check = plcore.TropicalMap.__init__

    def counted(self, break_points, slopes, anchor_value):
        built.append(break_points)
        check(self, break_points, slopes, anchor_value)
    monkeypatch.setattr(plcore.TropicalMap, "__init__", counted)
    return built


README_POINT = {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "2", "1"], "position": "0"}


@pytest.mark.parametrize("command, shown", [("aut", '"kind": "z2"'),
                                            ("stratum", '"aut": "z2"'),
                                            ("curve", '"vertices"')])
def test_point_commands_build_no_map(capsys, monkeypatch, maps, command, shown):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(README_POINT)))
    assert cli.main([command, "-", "--json"]) == 0
    assert shown in capsys.readouterr().out
    assert maps == []


# The canonical network of the README map: type I, gaps (1, 2, 1).
TYPE_I_NET = {"base_slope": "3", "base_bias": "0",
              "units": [{"w": "1", "b": str(-x), "a": str(a)}
                        for x, a in ((0, 1), (1, 1), (3, -1), (4, -1))]}


def test_symmetry_builds_only_the_converted_map(capsys, monkeypatch, maps):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TYPE_I_NET)))
    assert cli.main(["symmetry", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut"] == "z2"
    assert payload["gap_condition"] == {"l1": "1", "l3": "1", "equal": True}
    assert len(maps) == 1


@pytest.fixture
def parses(monkeypatch):
    """How often parse_rational and parse_extended run while the test runs."""
    counts = Counter()

    def counting(name, parse):
        def counted(value):
            counts[name] += 1
            return parse(value)
        return counted
    wrapped = {name: counting(name, getattr(rational, name))
               for name in ("parse_rational", "parse_extended")}
    for module in (rational, compact, serialize, moduli, plcore, hurwitz, cli):
        for name, counted in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


MANY_GAPS = ["1"] * 100000


@pytest.mark.parametrize("decode, obj, message, parsed", [
    (serialize.compact_point_from_json, {"slopes": [3, 4, 5, 4, 3], "gaps": MANY_GAPS},
     "need exactly three extended gap coordinates", 0),
    # the moduli point's one parse is its position
    (serialize.point_from_json, {"slopes": [3, 4, 5, 4, 3], "gaps": MANY_GAPS, "position": "0"},
     "need k-1 gap lengths", 1),
], ids=["compact", "moduli"])
def test_a_wrong_gap_count_parses_no_gap(parses, decode, obj, message, parsed):
    with pytest.raises(InputError, match=message):
        decode(obj)
    assert sum(parses.values()) == parsed


def test_three_compact_gaps_are_each_parsed_once(parses):
    p = serialize.compact_point_from_json({"slopes": [3, 4, 5, 4, 3], "gaps": ["0", "2", "inf"]})
    assert p.extended_gaps == (0, 2, rational.POS_INF)
    assert parses == {"parse_extended": 3, "parse_rational": 2}


@pytest.mark.parametrize("build, parsed", [
    (lambda: BranchConfiguration(["1", "2", "3"]), 3),
    # four points, then the three distances between them in __init__
    (lambda: BranchConfiguration.from_branch_points(["4", "0", "1", "3"]), 4 + 3),
    # k-1 gaps and the position
    (lambda: moduli.ModuliPoint(registry_sequence("I"), ["1", "2", "1"], "0"), 3 + 1),
], ids=["distances", "branch-points", "moduli"])
def test_a_right_count_parses_each_entry_once(parses, build, parsed):
    build()
    assert parses == {"parse_rational": parsed}


def test_eval_reads_its_point_once(capsys, monkeypatch, parses):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(README_MAP)))
    assert cli.main(["eval", "-", "--at=1/2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": "2"}
    assert parses["parse_extended"] == 1


def test_n_coefficients_are_each_read_once(parses):
    p = serialize.polynomial_from_json(["0", "-inf", "1/2", "-inf", "3"])
    assert p.coefficients == (0, rational.NEG_INF, Fraction(1, 2), rational.NEG_INF, 3)
    # each finite coefficient is parsed by parse_extended's own parse_rational call
    assert parses == {"parse_extended": 5, "parse_rational": 3}


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
def test_a_wrong_branch_count_parses_no_entry(parses, build, message):
    with pytest.raises(ValueError, match=message):
        build()
    assert sum(parses.values()) == 0


@pytest.mark.parametrize("option, message", [("--distances", "need exactly three distances"),
                                             ("--branch", "need exactly four branch points")])
def test_the_hurwitz_command_counts_before_it_parses(capsys, parses, option, message):
    assert cli.main(["hurwitz", option, ",".join(MANY_ENTRIES), "--json"]) == 2
    assert json.loads(capsys.readouterr().err)["detail"] == message
    assert sum(parses.values()) == 0
