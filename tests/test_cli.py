import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropmaps import TropicalMap, cli, moduli, moduli_point

EXAMPLE_MAP = {"breaks": ["0", "1", "3", "4"], "slopes": [3, 4, 5, 4, 3],
               "anchor": "0"}
EXAMPLE_POINT = {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "2", "1"],
                 "position": "0"}
LONG_UNIT = {"w": "1", "b": "0", "a": "1/1" + "0" * 3999}
EXAMPLE_NET = {"base_slope": "3", "base_bias": "0",
               "units": [{"w": "1", "b": "0", "a": "1"},
                         {"w": "1", "b": "-1", "a": "1"},
                         {"w": "1", "b": "-3", "a": "-1"},
                         {"w": "1", "b": "-4", "a": "-1"}]}
NINES = "9" * 4000  # one unit of w = a = NINES gives an 8,000-digit slope


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestTypes:
    def test_degree3_table(self, capsys):
        code, out = run(capsys, "types", "--degree", "3")
        assert code == 0
        assert out.count("\n") == 10 and "(3, 4, 5, 4, 3)" in out

    def test_degree3_json(self, capsys):
        code, rows = run_json(capsys, "types", "--degree", "3")
        assert code == 0 and len(rows) == 10
        assert rows[0] == {"label": "I", "slopes": [3, 4, 5, 4, 3],
                           "palindromic": True, "k": 4}
        assert [r["k"] for r in rows].count(4) == 5

    def test_other_degree(self, capsys):
        code, rows = run_json(capsys, "types", "--degree", "2")
        assert code == 0 and len(rows) == 2

    @pytest.mark.parametrize("cap, labels", [
        ("4", "I II III IV V VI VII VIII IX X"), ("3", "VI VII VIII IX X"), ("-1", "")])
    def test_degree3_cap_filters_the_registry(self, capsys, cap, labels):
        _, full = run(capsys, "types", "--degree", "3", "--json")
        code, out = run(capsys, "types", "--degree", "3", "--max-breaks=" + cap, "--json")
        assert code == 0 and [r["label"] for r in json.loads(out)] == labels.split()
        assert json.loads(out) == [r for r in json.loads(full) if r["k"] <= int(cap)]
        assert (out == full) == (cap == "4")

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "types", "--degree", "4", "--json")
        _, b = run(capsys, "types", "--degree", "4", "--json")
        assert a == b


class TestEval:
    def test_example(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", EXAMPLE_MAP)
        code, out = run(capsys, "eval", path, "--at", "2")
        assert code == 0 and out.strip() == "9"

    def test_rational_point(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", EXAMPLE_MAP)
        code, payload = run_json(capsys, "eval", path, "--at", "1/2")
        assert code == 0 and payload == {"value": "2"}

    def test_infinity(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", EXAMPLE_MAP)
        code, payload = run_json(capsys, "eval", path, "--at", "inf")
        assert code == 0 and payload == {"value": "inf"}

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXAMPLE_MAP)))
        code, out = run(capsys, "eval", "-", "--at", "5")
        assert code == 0 and out.strip() == "21"


class TestClassify:
    def test_valid_map(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", EXAMPLE_MAP)
        code, payload = run_json(capsys, "classify", path)
        assert code == 0
        assert payload["valid"] and payload["admissible"]
        assert payload["type"] == "I"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["classify", str(path)]) == 2

    def test_missing_field(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", {"breaks": []})
        assert cli.main(["classify", path]) == 2


class TestModuliCommands:
    def test_aut(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", EXAMPLE_POINT)
        code, payload = run_json(capsys, "aut", path)
        assert code == 0
        assert payload == {"kind": "z2", "reflection_center": "2",
                           "target_shift": "18"}

    def test_stratum(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", EXAMPLE_POINT)
        code, payload = run_json(capsys, "stratum", path)
        assert payload == {"aut": "z2", "cell_dimension": 4,
                           "symmetric_locus": True, "label": "symmetric"}

    def test_degenerate_valid(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", EXAMPLE_POINT)
        code, payload = run_json(capsys, "degenerate", path, "--merge", "1")
        assert code == 0
        assert payload == {"slopes": [3, 5, 4, 3], "gaps": ["2", "1"],
                           "position": "0"}

    def test_degenerate_invalid_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", EXAMPLE_POINT)
        code, payload = run_json(capsys, "degenerate", path, "--merge", "2")
        assert code == 1 and payload["error"] == "invalid-degeneration"

    def test_curve(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", EXAMPLE_POINT)
        code, payload = run_json(capsys, "curve", path)
        assert payload["leaf_dilations"] == [3, 3]
        assert [v["weight"] for v in payload["vertices"]] == [1, 1, 1, 1]
        assert payload["edges"][1] == {"length": "2", "dilation": 5}


class TestHurwitz:
    def test_distances(self, capsys):
        code, payload = run_json(capsys, "hurwitz", "--distances", "4,10,4")
        assert code == 0
        assert payload["geometric_count"] == 6
        assert payload["weighted_count"] == 9
        assert len(payload["elements"]) == 6

    def test_branch_points(self, capsys):
        code, payload = run_json(capsys, "hurwitz", "--branch", "0,4,14,18")
        assert payload["weighted_count"] == 9
        gaps = {tuple(e["gaps"]) for e in payload["elements"]}
        assert ("1", "2", "1") in gaps

    def test_non_generic(self, capsys):
        code, payload = run_json(capsys, "hurwitz", "--distances", "1,0,1")
        assert code == 1 and payload["error"] == "non-generic-configuration"


class TestCompactCommands:
    def test_strata(self, capsys):
        code, payload = run_json(capsys, "strata", "--type", "I")
        assert code == 0 and len(payload["strata"]) == 27
        assert payload["codimension_census"] == {"0": 1, "1": 6, "2": 12, "3": 8}

    def test_strata_lower_type_rejected(self, capsys):
        code, payload = run_json(capsys, "strata", "--type", "IX")
        assert code == 1

    def test_classify_compact(self, capsys, tmp_path):
        path = write(tmp_path, "c.json",
                     {"slopes": [3, 4, 5, 4, 3], "gaps": ["0", "2", "1"]})
        code, payload = run_json(capsys, "classify-compact", path)
        assert code == 0
        assert payload["collisions"] == [{"index": 1, "kind": "valid-merge"}]
        assert payload["limit_slopes"] == [3, 5, 4, 3]
        assert payload["in_moduli"] and payload["limit_label"] == "VI"

    def test_classify_compact_infinity(self, capsys, tmp_path):
        path = write(tmp_path, "c.json",
                     {"slopes": [3, 2, 3, 2, 3], "gaps": ["1", "1", "inf"]})
        code, payload = run_json(capsys, "classify-compact", path)
        assert payload["infinity"] == [3] and payload["codimension"] == 1


class TestReluCommands:
    def test_from_relu(self, capsys, tmp_path):
        path = write(tmp_path, "n.json", EXAMPLE_NET)
        code, payload = run_json(capsys, "from-relu", path)
        assert code == 0 and payload["admissible"]
        assert payload["map"] == EXAMPLE_MAP

    def test_to_relu_roundtrip(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", EXAMPLE_MAP)
        code, payload = run_json(capsys, "to-relu", path)
        assert code == 0 and payload == EXAMPLE_NET

    @pytest.mark.parametrize("net, slopes", [
        ({"base_slope": "1/2", "base_bias": "0", "units": []}, ["1/2"]),
        ({"base_slope": "3", "base_bias": "0",
          "units": [{"w": "1", "b": "0", "a": "1/3"}]}, [3, "10/3"]),
        # a 4,000-digit denominator: the map writes the slope out in full
        ({"base_slope": "3", "base_bias": "0", "units": [LONG_UNIT]},
         [3, "3" + "0" * 3998 + "1/1" + "0" * 3999]),
    ])
    def test_from_relu_non_integer_slope(self, capsys, tmp_path, net, slopes):
        path = write(tmp_path, "n.json", net)
        code, payload = run_json(capsys, "from-relu", path)
        assert code == 0 and payload["map"]["slopes"] == slopes
        assert not payload["admissible"]
        # the problem echoes the slope in interchange form, cut to 40
        # characters plus its length
        echo = slopes[-1]
        if len(echo) > 40:
            echo = "%s... (%d characters)" % (echo[:40], len(echo))
        assert "non-integer slope: " + echo in payload["problems"]
        code, out = run(capsys, "from-relu", path)
        assert code == 0 and "admissible: false" in out.splitlines()

    def test_symmetry(self, capsys, tmp_path):
        path = write(tmp_path, "n.json", EXAMPLE_NET)
        code, payload = run_json(capsys, "symmetry", path)
        assert payload["type"] == "I" and payload["aut"] == "z2"
        assert payload["gap_condition"] == {"l1": "1", "l3": "1", "equal": True}


class TestTropicalize:
    def test_cubic(self, capsys, tmp_path):
        path = write(tmp_path, "f.json", {"p": ["0", "0", "0", "0"], "q": ["0"]})
        code, payload = run_json(capsys, "tropicalize", path)
        assert code == 0
        assert payload == {"breaks": ["0"], "slopes": [0, 3], "anchor": "0"}

    def test_sparse_with_bottom(self, capsys, tmp_path):
        path = write(tmp_path, "f.json",
                     {"p": ["0", "-inf", "-inf", "0"], "q": ["0"]})
        code, payload = run_json(capsys, "tropicalize", path)
        assert payload["slopes"] == [0, 3]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("types", "--degree", "3"),
        ("hurwitz", "--distances", "4,10,4"),
        ("strata", "--type", "II"),
    ])
    def test_byte_identical_json(self, capsys, argv):
        _, a = run(capsys, *argv, "--json")
        _, b = run(capsys, *argv, "--json")
        assert a == b


INVALID_MAP = {"breaks": ["1", "0"], "slopes": [3, 4, 3], "anchor": "0"}


def run_stdin(capsys, monkeypatch, argv, obj=None):
    text = obj if isinstance(obj, str) else json.dumps(obj)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErrorCodes:
    @pytest.mark.parametrize("error, exit_code, stream, argv, stdin", [
        ("invalid-input", 2, "err", ("classify", "-"), "{not json"),
        ("invalid-map", 1, "out", ("eval", "-", "--at", "2"), INVALID_MAP),
        ("invalid-degeneration", 1, "out", ("degenerate", "-", "--merge", "2"),
         EXAMPLE_POINT),
        ("non-generic-configuration", 1, "out", ("hurwitz", "--distances", "1,0,1"), None),
        ("not-a-maximal-type", 1, "out", ("strata", "--type", "IX"), None),
        ("domain-error", 1, "out", ("types", "--degree", "0"), None),
        ("invalid-input", 2, "err", ("types", "--degree", "9"), None),
        ("result-too-large", 1, "out", ("eval", "-", "--at", "7" * 3000),
         {"breaks": [], "slopes": [int("7" * 3000)], "anchor": "0"}),
        ("not-a-maximal-type", 1, "out", ("classify-compact", "-"),
         {"slopes": [3, 5, 3], "gaps": ["1"]}),
    ])
    def test_code_exit_and_stream(self, capsys, monkeypatch, error, exit_code,
                                  stream, argv, stdin):
        code, out, err = run_stdin(capsys, monkeypatch, argv, stdin)
        shown, silent = (err, out) if stream == "err" else (out, err)
        assert code == exit_code and silent == ""
        payload = json.loads(shown)
        assert payload["error"] == error and payload["detail"]

    def test_unreadable_file_echoes_its_path_cut_short(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        path = "missing/" * 37 + "data"   # 300 characters, under no directory
        code = cli.main(["classify", path, "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.err)
        assert (code, captured.out, payload["error"]) == (2, "", "invalid-input")
        detail = payload["detail"]
        assert len(detail) < 200 and detail.startswith("cannot read 'missing/")
        assert detail.endswith("... (302 characters): No such file or directory")

    def test_non_integer_point_slope_is_invalid_input(self, capsys, monkeypatch):
        point = {"slopes": [3, [4], 3], "gaps": ["1"], "position": "0"}
        code, out, err = run_stdin(capsys, monkeypatch, ("aut", "-"), point)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "detail": "non-integer slope: [4]"}

    @pytest.mark.parametrize("a", [NINES, NINES + "/7"], ids=["integer", "non-integer"])
    def test_network_past_the_digit_limit(self, capsys, monkeypatch, a):
        net = {"base_slope": "0", "base_bias": "0", "units": [{"w": NINES, "b": "0", "a": a}]}
        for argv in (("from-relu", "-"), ("from-relu", "-", "--json")):
            code, out, err = run_stdin(capsys, monkeypatch, argv, net)
            assert (code, err) == (1, "")
            assert json.loads(out)["error"] == "result-too-large"
        code, out, err = run_stdin(capsys, monkeypatch, ("symmetry", "-", "--json"), net)
        problems = json.loads(out)["problems"]
        assert (code, err) == (0, "") and problems
        assert all(len(p) <= 200 for p in problems)
        assert any("a number of 8000 digits" in p for p in problems)

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        for message, detail in (("boom", "RuntimeError: boom"),
                                ("x" * 1000, "RuntimeError: " + "x" * 146 + "... (1014 characters)")):
            def broken(p, message=message):
                raise RuntimeError(message)
            monkeypatch.setattr(moduli, "automorphisms", broken)
            code, out, err = run_stdin(capsys, monkeypatch, ("aut", "-", "--json"), EXAMPLE_POINT)
            assert (code, out) == (3, "") and "Traceback" not in err
            assert json.loads(err) == {"error": "internal-error", "detail": detail}

    @staticmethod
    def cli_process(argv, stdout, **env):
        """`python -m tropmaps.cli argv` on this checkout's package, with
        `env` added to the environment."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.Popen([sys.executable, "-m", "tropmaps.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=path, **env))

    def test_closed_stdout_exits_as_sigpipe(self):
        """A reader that stops after 10 bytes: nothing on stderr, and exit 141
        (128 + SIGPIPE), what a shell reports for `cat` cut off the same way."""
        with self.cli_process(["types", "--degree", "6"], subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait()) == (b"", 141)

    def test_error_report_to_a_closed_stdout(self):
        read, write = os.pipe()
        os.close(read)
        with self.cli_process(["hurwitz", "--distances", "1,0,1"], write) as proc:
            os.close(write)
            assert (proc.stderr.read(), proc.wait()) == (b"", 141)

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
        with self.cli_process(argv, write, PYTHONUNBUFFERED=unbuffered) as proc:
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
    def test_malformed_shapes_are_invalid_input(self, capsys, monkeypatch, argv, obj):
        code, out, err = run_stdin(capsys, monkeypatch, argv, obj)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-input"

    def test_unknown_type_label_detail_is_the_message(self, capsys, monkeypatch):
        code, out, err = run_stdin(capsys, monkeypatch, ("strata", "--type", "XI"))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "invalid-input",
                                   "detail": "unknown degree-3 type label: 'XI'"}

    def test_long_rejected_value_is_not_echoed(self, capsys, monkeypatch):
        long = "7" * 5000  # past the interpreter's int-string digit limit
        for obj in ({"breaks": [], "slopes": [3], "anchor": long},
                    {"breaks": [], "slopes": [long], "anchor": "0"}):
            code, out, err = run_stdin(capsys, monkeypatch, ("classify", "-"), obj)
            payload = json.loads(err)
            assert code == 2 and out == "" and payload["error"] == "invalid-input"
            assert len(payload["detail"]) < 200 and "5002 characters" in payload["detail"]
        # a 4,000-digit denominator parses; the map's problems echo it cut short
        net = {"base_slope": "3", "base_bias": "0", "units": [LONG_UNIT]}
        code, out, err = run_stdin(capsys, monkeypatch, ("from-relu", "-", "--json"), net)
        problems = json.loads(out)["problems"]
        assert code == 0 and err == "" and problems
        assert all(len(p) < 200 for p in problems) and "8001 characters" in problems[0]
        # a 4,000-digit slope reaches the admissibility rule, which echoes it
        # and the total ramification cut short
        big = int("7" * 4000)
        point = {"slopes": [3, 4, 5, 4, big], "gaps": ["1", "1", "1"], "position": "0"}
        code, out, err = run_stdin(capsys, monkeypatch, ("aut", "-", "--json"), point)
        detail = json.loads(err)["detail"]
        assert code == 2 and out == "" and len(detail) < 200
        assert "end slopes (3, 7777" in detail and "(4000 characters)" in detail
        m = {"breaks": ["0", "1"], "slopes": [3, big, 3], "anchor": "0"}
        code, out, err = run_stdin(capsys, monkeypatch, ("classify", "-", "--json"), m)
        reasons = json.loads(out)["reasons"]
        assert code == 0 and err == "" and reasons
        assert all(len(r) < 200 for r in reasons) and "(4001 characters)" in reasons[0]
