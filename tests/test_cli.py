import contextlib
import errno
import hashlib
import io
import json
import math
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmaps import TropicalMap, cli, moduli, moduli_point, types_enum
from conftest import README_MAP, README_NET, README_POINT, call, python

LONG_UNIT = {"w": "1", "b": "0", "a": "1/1" + "0" * 3999}
NINES = "9" * 4000  # one unit of w = a = NINES gives an 8,000-digit slope


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestTypes:
    def test_degree3_table(self):
        code, out, _ = call(["types", "--degree", "3"])
        assert code == 0
        assert out.count("\n") == 10 and "(3, 4, 5, 4, 3)" in out

    def test_degree3_json(self):
        code, out, _ = call(["types", "--degree", "3", "--json"])
        rows = json.loads(out)
        assert code == 0 and len(rows) == 10
        assert rows[0] == {"label": "I", "slopes": [3, 4, 5, 4, 3],
                           "palindromic": True, "k": 4}
        assert [r["k"] for r in rows].count(4) == 5

    def test_other_degree(self):
        code, out, _ = call(["types", "--degree", "2", "--json"])
        assert code == 0 and len(json.loads(out)) == 2

    def test_largest_degree_is_listed(self, monkeypatch):
        # listing degree 8 takes seconds: the bound is what is tested here
        asked = []
        monkeypatch.setattr(types_enum, "canonical_sequences", lambda *args: asked.append(args) or [])
        assert call(["types", "--degree", "8", "--json"]) == (0, "[]\n", "")
        assert asked == [(8, None)]

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_rows_are_the_library_types(self, degree):
        # the CLI builds its rows from the slope tuples, with no type objects.
        # Bytes, not parsed JSON: a spacing slip in a row template shows here.
        # Degree 3 lists the registry, in its order.  Cap 0 lists nothing, "[]",
        # at every degree but 1.
        for cap in [None, *range(2 * degree - 1)]:
            argv = ["types", "--degree", str(degree), "--json"]
            code, out, _ = call(argv + ([] if cap is None else ["--max-breaks", str(cap)]))
            if degree == 3:
                rows = [{"label": label, "slopes": list(q), "palindromic": q == q[::-1],
                         "k": len(q) - 1} for label, q in types_enum._REGISTRY_D3
                        if cap is None or len(q) - 1 <= cap]
            else:
                rows = [{"label": t.label, "slopes": list(t.representative.slopes),
                         "palindromic": t.palindromic, "k": t.k}
                        for t in types_enum.enumerate_types(degree, cap)]
            same = out == json.dumps(rows) + "\n"   # pytest's diff of two long lines takes minutes
            assert code == 0 and same, "degree %d, cap %s: the bytes differ" % (degree, cap)

    def test_one_row_template_per_shape(self):
        # templates are keyed by label, slope count and palindromic flag, not
        # by row: degree 7's 28,338 rows have at most 2 x 13 shapes
        cli._row_template.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["types", "--degree", "7", "--json"]) == 0
        info = cli._row_template.cache_info()
        assert info.currsize <= 2 * (2 * 7 - 1) and info.hits + info.misses == 28_338

    def test_degree7_bytes(self):
        # the golden corpus holds no listing this large
        code, out, err = call(["types", "--degree", "7", "--json"])
        assert (code, err, len(out)) == (0, "", 2_518_980)
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "58588534a1ed1001cb738deea1783e176df9bf1de32a9ac53edcac732a7fc069"

    def test_json_rows_are_written_a_chunk_at_a_time(self):
        # the listing is never held whole: each write carries at most one
        # chunk of rows, so degree 7's 28,338 rows take several writes
        class Recording(io.StringIO):
            def write(self, text):
                rows.append(text.count('{"label": '))
                return super().write(text)
        rows, out = [], Recording()
        with contextlib.redirect_stdout(out):
            assert cli.main(["types", "--degree", "7", "--json"]) == 0
        assert len(out.getvalue()) == 2_518_980
        chunks = [n for n in rows if n]
        assert sum(chunks) == 28_338 and len(chunks) > 1
        assert max(chunks) <= cli._ROWS_PER_WRITE

    @pytest.mark.parametrize("cap, labels", [
        ("4", "I II III IV V VI VII VIII IX X"), ("3", "VI VII VIII IX X"), ("0", "")])
    def test_degree3_cap_filters_the_registry(self, cap, labels):
        _, full, _ = call(["types", "--degree", "3", "--json"])
        code, out, _ = call(["types", "--degree", "3", "--max-breaks=" + cap, "--json"])
        assert code == 0 and [r["label"] for r in json.loads(out)] == labels.split()
        assert json.loads(out) == [r for r in json.loads(full) if r["k"] <= int(cap)]
        assert (out == full) == (cap == "4")

    def test_deterministic_output(self):
        argv = ["types", "--degree", "4", "--json"]
        assert call(argv) == call(argv)


class TestEval:
    def test_example(self, tmp_path):
        path = write(tmp_path, "m.json", README_MAP)
        code, out, _ = call(["eval", path, "--at", "2"])
        assert code == 0 and out.strip() == "9"

    def test_rational_point(self, tmp_path):
        path = write(tmp_path, "m.json", README_MAP)
        code, out, _ = call(["eval", path, "--at", "1/2", "--json"])
        assert code == 0 and json.loads(out) == {"value": "2"}

    def test_infinity(self, tmp_path):
        path = write(tmp_path, "m.json", README_MAP)
        code, out, _ = call(["eval", path, "--at", "inf", "--json"])
        assert code == 0 and json.loads(out) == {"value": "inf"}

    def test_stdin(self):
        code, out, _ = call(["eval", "-", "--at", "5"], README_MAP)
        assert code == 0 and out.strip() == "21"


class TestClassify:
    def test_valid_map(self, tmp_path):
        path = write(tmp_path, "m.json", README_MAP)
        code, out, _ = call(["classify", path, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["valid"] and payload["admissible"]
        assert payload["type"] == "I"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert call(["classify", str(path)])[0] == 2

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "m.json", {"breaks": []})
        assert call(["classify", path])[0] == 2


class TestModuliCommands:
    def test_aut(self, tmp_path):
        path = write(tmp_path, "p.json", README_POINT)
        code, out, _ = call(["aut", path, "--json"])
        assert code == 0
        assert json.loads(out) == {"kind": "z2", "reflection_center": "2",
                                   "target_shift": "18"}

    def test_stratum(self, tmp_path):
        path = write(tmp_path, "p.json", README_POINT)
        _, out, _ = call(["stratum", path, "--json"])
        assert json.loads(out) == {"aut": "z2", "cell_dimension": 4,
                                   "symmetric_locus": True, "label": "symmetric"}

    def test_degenerate_valid(self, tmp_path):
        path = write(tmp_path, "p.json", README_POINT)
        code, out, _ = call(["degenerate", path, "--merge", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {"slopes": [3, 5, 4, 3], "gaps": ["2", "1"],
                                   "position": "0"}

    def test_degenerate_invalid_exit_code(self, tmp_path):
        path = write(tmp_path, "p.json", README_POINT)
        code, out, _ = call(["degenerate", path, "--merge", "2", "--json"])
        assert code == 1 and json.loads(out)["error"] == "invalid-degeneration"

    def test_curve(self, tmp_path):
        path = write(tmp_path, "p.json", README_POINT)
        _, out, _ = call(["curve", path, "--json"])
        payload = json.loads(out)
        assert payload["leaf_dilations"] == [3, 3]
        assert [v["weight"] for v in payload["vertices"]] == [1, 1, 1, 1]
        assert payload["edges"][1] == {"length": "2", "dilation": 5}


class TestHurwitz:
    def test_distances(self):
        code, out, _ = call(["hurwitz", "--distances", "4,10,4", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["geometric_count"] == 6
        assert payload["weighted_count"] == 9
        assert len(payload["elements"]) == 6

    def test_branch_points(self):
        _, out, _ = call(["hurwitz", "--branch", "0,4,14,18", "--json"])
        payload = json.loads(out)
        assert payload["weighted_count"] == 9
        gaps = {tuple(e["gaps"]) for e in payload["elements"]}
        assert ("1", "2", "1") in gaps

    def test_non_generic(self):
        code, out, _ = call(["hurwitz", "--distances", "1,0,1", "--json"])
        assert code == 1 and json.loads(out)["error"] == "non-generic-configuration"


class TestCompactCommands:
    def test_strata(self):
        code, out, _ = call(["strata", "--type", "I", "--json"])
        payload = json.loads(out)
        assert code == 0 and len(payload["strata"]) == 27
        assert payload["codimension_census"] == {"0": 1, "1": 6, "2": 12, "3": 8}

    def test_strata_lower_type_rejected(self):
        code, out, _ = call(["strata", "--type", "IX", "--json"])
        assert code == 1 and "error" in json.loads(out)

    def test_classify_compact(self, tmp_path):
        path = write(tmp_path, "c.json",
                     {"slopes": [3, 4, 5, 4, 3], "gaps": ["0", "2", "1"]})
        code, out, _ = call(["classify-compact", path, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["collisions"] == [{"index": 1, "kind": "valid-merge"}]
        assert payload["limit_slopes"] == [3, 5, 4, 3]
        assert payload["in_moduli"] and payload["limit_label"] == "VI"

    def test_classify_compact_infinity(self, tmp_path):
        path = write(tmp_path, "c.json",
                     {"slopes": [3, 2, 3, 2, 3], "gaps": ["1", "1", "inf"]})
        _, out, _ = call(["classify-compact", path, "--json"])
        payload = json.loads(out)
        assert payload["infinity"] == [3] and payload["codimension"] == 1


class TestReluCommands:
    def test_from_relu(self, tmp_path):
        path = write(tmp_path, "n.json", README_NET)
        code, out, _ = call(["from-relu", path, "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["admissible"]
        assert payload["map"] == README_MAP

    def test_to_relu_roundtrip(self, tmp_path):
        path = write(tmp_path, "m.json", README_MAP)
        code, out, _ = call(["to-relu", path, "--json"])
        assert code == 0 and json.loads(out) == README_NET

    @pytest.mark.parametrize("net, slopes", [
        ({"base_slope": "1/2", "base_bias": "0", "units": []}, ["1/2"]),
        ({"base_slope": "3", "base_bias": "0",
          "units": [{"w": "1", "b": "0", "a": "1/3"}]}, [3, "10/3"]),
        # a 4,000-digit denominator: the map writes the slope out in full
        ({"base_slope": "3", "base_bias": "0", "units": [LONG_UNIT]},
         [3, "3" + "0" * 3998 + "1/1" + "0" * 3999]),
    ])
    def test_from_relu_non_integer_slope(self, tmp_path, net, slopes):
        path = write(tmp_path, "n.json", net)
        code, out, _ = call(["from-relu", path, "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["map"]["slopes"] == slopes
        assert not payload["admissible"]
        # the problem echoes the slope in interchange form, cut to 40
        # characters plus its length
        echo = slopes[-1]
        if len(echo) > 40:
            echo = "%s... (%d characters)" % (echo[:40], len(echo))
        assert "non-integer slope: " + echo in payload["problems"]
        code, out, _ = call(["from-relu", path])
        assert code == 0 and "admissible: false" in out.splitlines()

    def test_symmetry(self, tmp_path):
        path = write(tmp_path, "n.json", README_NET)
        _, out, _ = call(["symmetry", path, "--json"])
        payload = json.loads(out)
        assert payload["type"] == "I" and payload["aut"] == "z2"
        assert payload["gap_condition"] == {"l1": "1", "l3": "1", "equal": True}


class TestTropicalize:
    def test_cubic(self, tmp_path):
        path = write(tmp_path, "f.json", {"p": ["0", "0", "0", "0"], "q": ["0"]})
        code, out, _ = call(["tropicalize", path, "--json"])
        assert code == 0
        assert json.loads(out) == {"breaks": ["0"], "slopes": [0, 3], "anchor": "0"}

    def test_sparse_with_bottom(self, tmp_path):
        path = write(tmp_path, "f.json",
                     {"p": ["0", "-inf", "-inf", "0"], "q": ["0"]})
        _, out, _ = call(["tropicalize", path, "--json"])
        assert json.loads(out)["slopes"] == [0, 3]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("types", "--degree", "3"),
        ("hurwitz", "--distances", "4,10,4"),
        ("strata", "--type", "II"),
    ])
    def test_byte_identical_json(self, argv):
        argv = [*argv, "--json"]
        assert call(argv) == call(argv)

    def test_one_parser_serves_every_call(self, spy, monkeypatch):
        cli._parser.cache_clear()   # as in a fresh process
        builds = spy(cli._Parser, "__init__")
        argvs = (["classify", "-", "--json"], ["eval", "-", "--at", "x"], ["nope"])
        for _ in range(2):
            assert [call(argv, README_MAP)[0] for argv in argvs] == [0, 2, 2]
        # each command's parser once, then the full parser for the unknown
        # command, built once and shared by every later call
        assert [kwargs["prog"] for *_, kwargs in builds] == [
            "tropmaps classify", "tropmaps eval", "tropmaps",
            *("tropmaps " + row[0] for row in cli.COMMANDS)]
        parser = cli.build_parser()
        assert len(builds) == 17 and cli.build_parser() is parser
        # the shared parser still wraps its help to each call's terminal width
        lines = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            lines.append(len(parser.format_help().splitlines()))
        assert lines[0] > lines[1]

    def test_every_build_goes_through_build_parser(self, spy):
        # the one function perfbench's tracer times a build by
        builds = spy(cli, "build_parser")
        assert call(["classify", "-", "--json"], README_MAP)[0] == 0
        assert call(["nope"])[0] == 2
        assert builds == [("classify",), ()]


def full_parse(argv):
    """What cli._parse gives when the full parser reads every call."""
    return cli.build_parser().parse_args(argv)


def parsed(parse, argv):
    """vars() of parse(argv) without func, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parse(argv))
        except SystemExit:
            return None
    del args["func"]
    return args


FLAGS = sorted({"--json", *(flag for row in cli.COMMANDS for arg in row[2]
                            for flag, _ in (arg if isinstance(arg, list) else [arg])
                            if flag.startswith("-"))})
VALUES = st.sampled_from(["3", "-1", "x", "-", "0,1,2,3", "II", "1/2", ""])
# no digit in junk: a drawn `types --degree 8` would list 235,734 types
TOKENS = st.one_of(
    st.sampled_from([row[0] for row in cli.COMMANDS]), st.sampled_from(FLAGS),
    st.builds(lambda flag, n: flag[:n], st.sampled_from(FLAGS), st.integers(1, 9)),
    st.sampled_from(["-h", "--json", "--"]), VALUES,
    st.builds("{}={}".format, st.sampled_from(FLAGS), VALUES),
    st.text(alphabet="-=,xz", max_size=4))
# one call of each row that parses
WELL_FORMED = [["types", "--degree", "3"], ["eval", "-", "--at", "2"],
               ["degenerate", "-", "--merge", "1"], ["hurwitz", "--distances", "4,10,4"],
               ["strata", "--type", "II"],
               *([row[0], "-"] for row in cli.COMMANDS if row[2][0] is cli.INPUT)]


@st.composite
def edited_calls(draw):
    """A well-formed call with up to three edits: a token deleted, or one or
    two inserted."""
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        i = draw(st.integers(0, len(argv)))
        if i < len(argv) and draw(st.booleans()):
            del argv[i]
        else:
            argv[i:i] = draw(st.lists(TOKENS, min_size=1, max_size=2))
    return argv


class TestParsePaths:
    @settings(max_examples=300, deadline=None)
    @given(argv=edited_calls())
    @example(argv=[])
    @example(argv=["types", "--deg", "3"])
    @example(argv=["types", "--degree", "3", "zz"])
    @example(argv=["eval", "-", "--at", "2", "--", "x"])
    @example(argv=["hurwitz", "--branch=0,1,2,3", "-h"])
    def test_the_command_parser_agrees_with_the_full_parser(self, argv):
        with mock.patch.object(cli, "_parse", full_parse):
            expected = call(argv, README_MAP)
        assert call(argv, README_MAP) == expected
        assert parsed(cli._parse, argv) == parsed(full_parse, argv)


INVALID_MAP = {"breaks": ["1", "0"], "slopes": [3, 4, 3], "anchor": "0"}


class TestErrorCodes:
    @pytest.mark.parametrize("error, exit_code, stream, argv, stdin", [
        ("invalid-input", 2, "err", ("classify", "-"), "{not json"),
        ("invalid-map", 1, "out", ("eval", "-", "--at", "2"), INVALID_MAP),
        ("invalid-degeneration", 1, "out", ("degenerate", "-", "--merge", "2"),
         README_POINT),
        ("non-generic-configuration", 1, "out", ("hurwitz", "--distances", "1,0,1"), None),
        ("not-a-maximal-type", 1, "out", ("strata", "--type", "IX"), None),
        ("invalid-input", 2, "err", ("types", "--degree", "0"), None),
        ("invalid-input", 2, "err", ("types", "--degree", "9"), None),
        ("result-too-large", 1, "out", ("eval", "-", "--at", "7" * 3000),
         {"breaks": [], "slopes": [int("7" * 3000)], "anchor": "0"}),
        ("not-a-maximal-type", 1, "out", ("classify-compact", "-"),
         {"slopes": [3, 5, 3], "gaps": ["1"]}),
        # a slope list not one longer than the break list is malformed input
        ("invalid-input", 2, "err", ("classify", "-"),
         {"breaks": ["0"], "slopes": [3], "anchor": "0"}),
        ("invalid-input", 2, "err", ("types", "--degree", "3", "--max-breaks", "-1"), None),
    ])
    def test_code_exit_and_stream(self, error, exit_code, stream, argv, stdin):
        code, out, err = call(argv, stdin)
        shown, silent = (err, out) if stream == "err" else (out, err)
        assert code == exit_code and silent == ""
        payload = json.loads(shown)
        assert payload["error"] == error and payload["detail"]

    def test_unreadable_file_echoes_its_path_cut_short(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        path = "missing/" * 37 + "data"   # 300 characters, under no directory
        code, out, err = call(["classify", path, "--json"])
        payload = json.loads(err)
        assert (code, out, payload["error"]) == (2, "", "invalid-input")
        detail = payload["detail"]
        assert len(detail) < 200 and detail.startswith("cannot read 'missing/")
        assert detail.endswith("... (302 characters): No such file or directory")

    def test_non_integer_point_slope_is_invalid_input(self):
        point = {"slopes": [3, [4], 3], "gaps": ["1"], "position": "0"}
        code, out, err = call(["aut", "-"], point)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "detail": "non-integer slope: [4]"}

    @pytest.mark.parametrize("a", [NINES, NINES + "/7"], ids=["integer", "non-integer"])
    def test_network_past_the_digit_limit(self, a):
        net = {"base_slope": "0", "base_bias": "0", "units": [{"w": NINES, "b": "0", "a": a}]}
        for argv in (["from-relu", "-"], ["from-relu", "-", "--json"]):
            code, out, err = call(argv, net)
            assert (code, err) == (1, "")
            assert json.loads(out)["error"] == "result-too-large"
        code, out, err = call(["symmetry", "-", "--json"], net)
        problems = json.loads(out)["problems"]
        assert (code, err) == (0, "") and problems
        assert all(len(p) <= 200 for p in problems)
        assert any("a number of 8000 digits" in p for p in problems)

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch):
        for message, detail in (("boom", "RuntimeError: boom"),
                                ("x" * 1000, "RuntimeError: " + "x" * 146 + "... (1014 characters)")):
            def broken(p, message=message):
                raise RuntimeError(message)
            monkeypatch.setattr(moduli, "automorphisms", broken)
            code, out, err = call(["aut", "-", "--json"], README_POINT)
            assert (code, out) == (3, "") and "Traceback" not in err
            assert json.loads(err) == {"error": "internal-error", "detail": detail}

    def test_uncoded_value_error_is_a_domain_error(self, monkeypatch):
        def rejecting(p):
            raise ValueError("boom")
        monkeypatch.setattr(moduli, "automorphisms", rejecting)
        assert call(["aut", "-", "--json"], README_POINT) == (
            1, '{"error": "domain-error", "detail": "boom"}\n', "")

    def test_closed_stdout_exits_as_sigpipe(self):
        """A reader that stops after 10 bytes: nothing on stderr, and exit 141
        (128 + SIGPIPE), what a shell reports for `cat` cut off the same way."""
        with python(["-m", "tropmaps.cli", "types", "--degree", "6"]) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait()) == (b"", 141)

    def test_closed_stdout_exits_as_sigpipe_json(self):
        # the listing fails in one of its own writes, not in the final flush
        with python(["-m", "tropmaps.cli", "types", "--degree", "6", "--json"]) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait()) == (b"", 141)

    def test_error_report_to_a_closed_stdout(self):
        read, write = os.pipe()
        os.close(read)
        with python(["-m", "tropmaps.cli", "hurwitz", "--distances", "1,0,1"], write) as proc:
            os.close(write)
            assert (proc.stderr.read(), proc.wait()) == (b"", 141)

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["aut", "-", "--json"], ["aut", "-"],
                                      ["types", "--degree", "6", "--json"],
                                      ["--help"], ["types", "--help"],
                                      ["hurwitz", "--distances", "1,0,1"]])
    def test_full_disk_is_an_output_error(self, tmp_path, argv, failing):
        """A stdout whose write or flush fails with ENOSPC: exit 74 and
        output-error on stderr, and stdout's descriptor then points at the null
        device, so the exit's own flush of what is left cannot fail again.
        Every write to stdout counts: the result, the help text, and the
        report of a domain error (coincident branch points here)."""
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        stdout, err = io.StringIO(), io.StringIO()
        stdout.fileno = lambda: fd
        setattr(stdout, failing, full)
        try:
            with mock.patch("sys.stdin", io.StringIO(json.dumps(README_POINT))), \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == 74 and json.loads(err.getvalue()) == {
            "error": "output-error", "detail": "cannot write the output: No space left on device"}

    @pytest.mark.parametrize("argv, stdin, error, code", [
        (["from-relu", "-", "--json"],
         {"base_slope": "0", "base_bias": "0", "units": [{"w": NINES, "b": "0", "a": NINES}]},
         cli.DomainError, "result-too-large"),
        (["classify", "-"], "{not json", cli.InputError, "invalid-input"),
        (["eval", "-", "--at", "2"], {"breaks": ["0"], "slopes": [3, 3], "anchor": "0"},
         cli.DomainError, "invalid-map"),
    ])
    def test_a_handler_raises_the_coded_error(self, argv, stdin, error, code):
        """args.func itself raises the coded error that main reports, a
        too-large result included: perfbench/ops.py calls it directly and maps
        the exception to its code as main does."""
        args = cli.build_parser().parse_args(argv)
        stdin = stdin if isinstance(stdin, str) else json.dumps(stdin)
        with mock.patch("sys.stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            with pytest.raises(error) as info:
                args.func(args)
        assert type(info.value) is error and info.value.code == code
        assert out.getvalue() == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, code, err", [
        (["--help"], 141, b""),
        (["types", "--help"], 141, b""),
        (["types"], 2, b"tropmaps types: error: the following arguments are required: --degree\n"),
    ])
    def test_argparse_output_to_a_closed_stdout(self, argv, code, err, unbuffered):
        """argparse passes over a failed write of its help in silence; the
        CLI exits 141 whether the write fails at once or at the flush.  A
        usage error still goes to stderr with exit 2."""
        read, write = os.pipe()
        os.close(read)
        with python(["-m", "tropmaps.cli", *argv], write, PYTHONUNBUFFERED=unbuffered) as proc:
            os.close(write)
            assert (proc.stderr.read().endswith(err), proc.wait()) == (True, code)

    def test_inadmissible_map_has_no_subcommand(self):
        with pytest.raises(cli.DomainError) as info:
            moduli_point(TropicalMap((0,), (3, 2), 0))
        assert info.value.code == "inadmissible-map" and info.value.exit_code == 1

    @pytest.mark.parametrize("argv, obj", [
        (("classify", "-"), {"breaks": 5, "slopes": [3], "anchor": "0"}),
        (("aut", "-"), {"slopes": 5, "gaps": ["1"], "position": "0"}),
        (("classify-compact", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": 5}),
        (("classify-compact", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "-inf", "1"]}),
        (("classify-compact", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", math.inf, "1"]}),
        (("classify", "-"), {"breaks": [], "slopes": [3], "anchor": "1e200000"}),
        (("tropicalize", "-"), {"p": ["0", "inf"], "q": ["0"]}),
        pytest.param(("classify", "-"), "[" * 100000, id="nested-100000-deep"),
        (("classify-compact", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "1"]}),
        (("hurwitz", "--branch", "0,1,2"), None),
        (("aut", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "1"], "position": "0"}),
        # a string where a list belongs is not read as its characters
        (("classify", "-"), {"breaks": "13", "slopes": [3, 4, 3], "anchor": "0"}),
        (("classify", "-"), {"breaks": ["0"], "slopes": "33", "anchor": "0"}),
        (("aut", "-"), {"slopes": [3, 5, 3], "gaps": "2", "position": "0"}),
        (("classify-compact", "-"), {"slopes": "34543", "gaps": ["1", "2", "1"]}),
        (("classify-compact", "-"), {"slopes": [3, 4, 5, 4, 3], "gaps": "121"}),
        (("from-relu", "-"), {"base_slope": "3", "base_bias": "0", "units": ""}),
        (("tropicalize", "-"), {"p": "000", "q": ["0"]}),
        (("tropicalize", "-"), {"p": ["0", "0"], "q": "0"}),
    ])
    def test_malformed_shapes_are_invalid_input(self, argv, obj):
        code, out, err = call(argv, obj)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-input"

    def test_unknown_type_label_detail_is_the_message(self):
        code, out, err = call(["strata", "--type", "XI"])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "invalid-input",
                                   "detail": "unknown degree-3 type label: 'XI'"}

    def test_long_rejected_value_is_not_echoed(self):
        long = "7" * 5000  # past the interpreter's int-string digit limit
        for obj in ({"breaks": [], "slopes": [3], "anchor": long},
                    {"breaks": [], "slopes": [long], "anchor": "0"}):
            code, out, err = call(["classify", "-"], obj)
            payload = json.loads(err)
            assert code == 2 and out == "" and payload["error"] == "invalid-input"
            assert len(payload["detail"]) < 200 and "5002 characters" in payload["detail"]
        # a 4,000-digit denominator parses; the map's problems echo it cut short
        net = {"base_slope": "3", "base_bias": "0", "units": [LONG_UNIT]}
        code, out, err = call(["from-relu", "-", "--json"], net)
        problems = json.loads(out)["problems"]
        assert code == 0 and err == "" and problems
        assert all(len(p) < 200 for p in problems) and "8001 characters" in problems[0]
        # a 4,000-digit slope reaches the admissibility rule, which echoes it
        # and the total ramification cut short
        big = int("7" * 4000)
        point = {"slopes": [3, 4, 5, 4, big], "gaps": ["1", "1", "1"], "position": "0"}
        code, out, err = call(["aut", "-", "--json"], point)
        detail = json.loads(err)["detail"]
        assert code == 2 and out == "" and len(detail) < 200
        assert "end slopes (3, 7777" in detail and "(4000 characters)" in detail
        m = {"breaks": ["0", "1"], "slopes": [3, big, 3], "anchor": "0"}
        code, out, err = call(["classify", "-", "--json"], m)
        reasons = json.loads(out)["reasons"]
        assert code == 0 and err == "" and reasons
        assert all(len(r) < 200 for r in reasons) and "(4001 characters)" in reasons[0]
