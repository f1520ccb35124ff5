import contextlib
import io
import os
import random
from fractions import Fraction
from unittest import mock

import pytest

from tropmaps import TropicalMap, cli

COLUMNS = "80"  # argparse wraps its usage lines to the terminal width


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


def call(argv, stdin):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
            mock.patch("sys.stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()
