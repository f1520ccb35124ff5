"""Golden corpus of CLI calls: each line of cli_golden.jsonl records one
`cli.main` call (argv and stdin) and what it gave (exit code, stdout and
stderr).  The test replays every call and compares all three byte for byte.

After a change that means to alter some outputs, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and read its diff: it names exactly the calls whose output changed.
"""

import json
from pathlib import Path

import pytest

from tropmaps import cli
from conftest import README_MAP, README_NET, README_POINT, call

CORPUS = Path(__file__).with_name("cli_golden.jsonl")

INADMISSIBLE_MAP = {"breaks": ["0"], "slopes": [3, 2], "anchor": "1/2"}
INVALID_MAP = {"breaks": ["1", "0"], "slopes": [3, 4, 3], "anchor": "0"}
BREAK_FREE_MAP = {"breaks": [], "slopes": [-2], "anchor": "7/3"}
ASYMMETRIC_POINT = {"slopes": [3, 4, 3, 2, 3], "gaps": ["1", "2", "3"],
                    "position": "-1/2"}
DEAD_NET = {"base_slope": "3", "base_bias": "1",
            "units": [{"w": "0", "b": "2", "a": "1"}, {"w": "1", "b": "-1", "a": "0"},
                      {"w": "2", "b": "-2", "a": "1"}, {"w": "1", "b": "-1", "a": "-2"},
                      {"w": "0", "b": "1", "a": "0"}, {"w": "-1", "b": "3", "a": "1"}]}
HALF_SLOPE_NET = {"base_slope": "1/2", "base_bias": "0", "units": []}
# the map from-relu writes for a network with a 1/2 base slope
HALF_SLOPE_MAP = {"breaks": ["1"], "slopes": ["1/2", "3/2"], "anchor": "1/2"}
LONG_UNIT_NET = {"base_slope": "3", "base_bias": "0",
                 "units": [{"w": "1", "b": "0", "a": "1/1" + "0" * 3999}]}
LONG = "7" * 5000
# f(x) = 3x + max(0, 1 - x) - max(0, x - 1) = 2x + 1: both kinks sit at 1
# with jumps +1 and -1 after folding, so they cancel and leave no break
CANCELLING_NET = {"base_slope": "3", "base_bias": "0",
                  "units": [{"w": "1", "b": "-1", "a": "-1"}, {"w": "-1", "b": "1", "a": "1"}]}
HUGE = "7" * 3000  # the value N*N at N has 6,000 digits, past the print limit
NINES = "9" * 4000
# one unit of w = a = NINES: an 8,000-digit slope, integer and not
BIG_SLOPE_NETS = [{"base_slope": "0", "base_bias": "0", "units": [{"w": NINES, "b": "0", "a": a}]}
                  for a in (NINES, NINES + "/7")]


def _both(argv, stdin=None):
    """A call in human mode and in --json mode."""
    return [(argv, stdin), (argv + ["--json"], stdin)]


def _json(argv, stdin=None):
    return [(argv + ["--json"], stdin)]


# (argv, stdin); stdin is the JSON text read by an input of "-", or None.
CALLS = [
    *_both(["types", "--degree", "3"]),
    *_both(["types", "--degree", "4", "--max-breaks", "2"]),
    *_json(["types", "--degree", "0"]),
    *_json(["types", "--degree", "9"]),
    *_json(["types", "--degree", "1", "--max-breaks", "-1"]),
    (["types"], None),
    (["nosuch"], None),
    *_json(["types", "--degree", "3", "--max-breaks", "4"]),
    *_both(["types", "--degree", "3", "--max-breaks", "3"]),

    *_both(["classify", "-"], json.dumps(README_MAP)),
    *_json(["classify", "-"], json.dumps(INADMISSIBLE_MAP)),
    *_both(["classify", "-"], json.dumps(INVALID_MAP)),
    *_both(["classify", "-"], "{not json"),
    *_json(["classify", "-"], json.dumps({"breaks": [], "slopes": [3], "anchor": LONG})),
    *_json(["classify", "-"], json.dumps({"breaks": ["1/2", "1/2"], "slopes": [3, 4, 3],
                                          "anchor": "0"})),
    *_json(["classify", "-"], json.dumps({"breaks": "13", "slopes": [3, 4, 3], "anchor": "0"})),
    *_json(["classify", "-"], json.dumps(HALF_SLOPE_MAP)),

    *_both(["eval", "-", "--at", "2"], json.dumps(README_MAP)),
    *_json(["eval", "-", "--at=-inf"], json.dumps(README_MAP)),
    *_json(["eval", "-", "--at=-1/2"], json.dumps(README_MAP)),
    *_json(["eval", "-", "--at", "5/3"], json.dumps(BREAK_FREE_MAP)),
    *_json(["eval", "-", "--at", "inf"], json.dumps(BREAK_FREE_MAP)),
    *_both(["eval", "-", "--at", "2"], json.dumps(INVALID_MAP)),
    *_json(["eval", "-", "--at", "zz"], json.dumps(README_MAP)),
    *_json(["eval", "-", "--at", HUGE],
           json.dumps({"breaks": [], "slopes": [int(HUGE)], "anchor": "0"})),

    *_both(["aut", "-"], json.dumps(README_POINT)),
    *_json(["aut", "-"], json.dumps(ASYMMETRIC_POINT)),
    *_json(["aut", "-"], json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "0", "1"],
                                     "position": "0"})),
    *_json(["aut", "-"], json.dumps({"slopes": [3, 4, 4, 3], "gaps": ["1", "1"],
                                     "position": "0"})),
    *_json(["aut", "-"], json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "1"],
                                     "position": "0"})),
    *_json(["aut", "-"], json.dumps({"slopes": [3, 5, 3], "gaps": "2", "position": "0"})),

    *_both(["stratum", "-"], json.dumps(README_POINT)),
    *_json(["stratum", "-"], json.dumps({"slopes": "345", "gaps": [], "position": "0"})),

    *_both(["degenerate", "-", "--merge", "1"], json.dumps(README_POINT)),
    *_both(["degenerate", "-", "--merge", "2"], json.dumps(README_POINT)),
    *_json(["degenerate", "-", "--merge", "0"], json.dumps(README_POINT)),

    *_both(["curve", "-"], json.dumps(ASYMMETRIC_POINT)),
    *_json(["curve", "-"], json.dumps({"gaps": ["1"]})),

    *_both(["classify-compact", "-"],
           json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": ["0", "2", "inf"]})),
    *_json(["classify-compact", "-"],
           json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "-inf", "1"]})),
    *_json(["classify-compact", "-"], json.dumps({"slopes": [3, 5, 3], "gaps": ["1"]})),
    *_json(["classify-compact", "-"],
           json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "1"]})),
    *_json(["classify-compact", "-"], json.dumps({"slopes": [3, 4, 5, 4, 3], "gaps": "121"})),
    *_json(["classify-compact", "-"], json.dumps({"slopes": [3, 4, 3, 4, 3],
                                                  "gaps": ["0", "0", "0"]})),

    *_both(["from-relu", "-"], json.dumps(README_NET)),
    *_both(["from-relu", "-"], json.dumps(HALF_SLOPE_NET)),
    *_json(["from-relu", "-"], json.dumps(LONG_UNIT_NET)),
    *_json(["from-relu", "-"], json.dumps({"base_slope": "3", "units": []})),
    *_json(["from-relu", "-"], json.dumps({"base_slope": "3", "base_bias": "0", "units": ""})),
    *_json(["from-relu", "-"], json.dumps(CANCELLING_NET)),
    *[call for net in BIG_SLOPE_NETS for call in _both(["from-relu", "-"], json.dumps(net))],

    *_both(["to-relu", "-"], json.dumps(README_MAP)),
    *_json(["to-relu", "-"], json.dumps(BREAK_FREE_MAP)),
    *_json(["to-relu", "-"], json.dumps(INVALID_MAP)),
    *_json(["to-relu", "-"], json.dumps({"breaks": [], "slopes": [], "anchor": "0"})),

    *_both(["symmetry", "-"], json.dumps(README_NET)),
    *_json(["symmetry", "-"], json.dumps(DEAD_NET)),
    *_json(["symmetry", "-"], json.dumps(HALF_SLOPE_NET)),
    *_json(["symmetry", "-"], json.dumps({"base_slope": "3", "base_bias": "0",
                                          "units": [{"w": "1", "b": "0"}]})),
    *[call for net in BIG_SLOPE_NETS for call in _json(["symmetry", "-"], json.dumps(net))],

    *_both(["tropicalize", "-"], json.dumps({"p": ["0", "0", "0", "0"], "q": ["0"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": ["1", "-inf", "2", "0"],
                                             "q": ["0", "-1/2"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": ["5"], "q": ["2"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": ["-inf", "-inf"], "q": ["0"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": [], "q": ["0"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": ["0", "inf"], "q": ["0"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": "000", "q": ["0"]})),
    *_json(["tropicalize", "-"], json.dumps({"p": ["0", "0"], "q": "0"})),
    # max(0, x, 2x - 1) - max(0, x): the shared corner at 0 cancels
    *_json(["tropicalize", "-"], json.dumps({"p": ["0", "0", "-1"], "q": ["0", "0"]})),

    *_both(["hurwitz", "--distances", "4,10,4"]),
    *_json(["hurwitz", "--branch", "0,1,3,7"]),
    *_json(["hurwitz", "--branch=-1,0,2,5"]),
    *_json(["hurwitz", "--branch", "0,1,2"]),
    *_both(["hurwitz", "--distances", "1,0,1"]),
    *_json(["hurwitz", "--distances", "1,2"]),
    *_json(["hurwitz", "--distances", "a,b,c"]),
    (["hurwitz", "--distances", "1,2,3", "--branch", "0,1,2,3"], None),
    *_json(["hurwitz", "--branch="]),

    *_both(["strata", "--type", "III"]),
    *_both(["strata", "--type", "IX"]),
    *_json(["strata", "--type", "XI"]),
    *_json(["strata", "--type=" + "Z" * 5000]),

    # argparse's own text: no command, help, an abbreviated flag, a leftover
    # argument, and a token after "--"
    ([], None),
    (["-h"], None),
    *[([row[0], "-h"], None) for row in cli.COMMANDS],
    (["types", "--deg", "3", "--json"], None),
    (["types", "--degree", "3", "zz"], None),
    (["eval", "-", "--at", "2", "--json", "--", "x"], json.dumps(README_MAP)),
]


def record(argv, stdin):
    code, out, err = call(argv, stdin)
    return {"argv": argv, "stdin": stdin, "exit": code, "stdout": out, "stderr": err}


def load():
    with CORPUS.open() as fh:
        return [json.loads(line) for line in fh]


RECORDS = load() if CORPUS.exists() else []


def test_corpus_lists_every_call():
    assert [[r["argv"], r["stdin"]] for r in RECORDS] == [list(c) for c in CALLS]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: " ".join(r["argv"])[:60])
def test_golden(rec):
    assert record(rec["argv"], rec["stdin"]) == rec


if __name__ == "__main__":
    with CORPUS.open("w") as fh:
        for argv, stdin in CALLS:
            fh.write(json.dumps(record(argv, stdin)) + "\n")
    print("wrote %d calls to %s" % (len(CALLS), CORPUS))
