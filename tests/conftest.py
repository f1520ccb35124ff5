import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from tropmaps import TropicalMap, cli

COLUMNS = "80"  # argparse wraps its usage lines to the terminal width

# The README's map of type (3,4,5,4,3), its moduli point, and the network
# `to-relu` writes for it.
README_MAP = {"breaks": ["0", "1", "3", "4"], "slopes": [3, 4, 5, 4, 3], "anchor": "0"}
README_POINT = {"slopes": [3, 4, 5, 4, 3], "gaps": ["1", "2", "1"], "position": "0"}
README_NET = {"base_slope": "3", "base_bias": "0",
              "units": [{"w": "1", "b": "0", "a": "1"}, {"w": "1", "b": "-1", "a": "1"},
                        {"w": "1", "b": "-3", "a": "-1"}, {"w": "1", "b": "-4", "a": "-1"}]}


@pytest.fixture
def example_map():
    """The standard four-break representative of type (3,4,5,4,3)."""
    return TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)


def example_formula(x):
    """Independent piecewise formula for the example map."""
    x = Fraction(x)
    if x <= 0:
        return 3 * x
    if x <= 1:
        return 4 * x
    if x <= 3:
        return 5 * x - 1
    if x <= 4:
        return 4 * x + 2
    return 3 * x + 6


def random_fraction(rng: random.Random, lo=1, hi=60, den=12):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def call(argv, stdin=None):
    """(exit code, stdout, stderr) of one in-process cli.main call.  stdin is
    the text to read, any other JSON value to read as JSON, or None."""
    if stdin is not None and not isinstance(stdin, str):
        stdin = json.dumps(stdin)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
            mock.patch("sys.stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def python(argv, stdout=subprocess.PIPE, **env):
    """A `python argv` process that imports this checkout's tropmaps, with
    `env` added to its environment; its stdin and stderr are pipes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, *argv], stdin=subprocess.PIPE, stdout=stdout,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path, **env))


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) wraps owner.name, and every binding of the same
    function in a tropmaps module, for the rest of the test; it returns the
    list of the argument tuples of its calls.  A call with keyword arguments
    has the dict of them as its tuple's last entry."""
    def install(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((*args, kwargs) if kwargs else args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "tropmaps" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
        return calls
    return install
