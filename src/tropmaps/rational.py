"""Exact rationals for the JSON interchange format.

All numeric data in this package is either a python int or a
fractions.Fraction; floats appear only as the +/- infinity sentinels
used at evaluation boundaries.
"""

import math
import sys
from fractions import Fraction

from .errors import DomainError

POS_INF = math.inf
NEG_INF = -math.inf


def is_infinite(x):
    return isinstance(x, float) and math.isinf(x)


# The one string form of a rational: an optional sign and ASCII decimal
# digits, then optionally "/" and ASCII decimal digits.  Fraction() would
# also take decimal points, exponents, digit-group underscores and
# non-ASCII digits; those are rejected.
def parse_rational(value):
    """Parse a JSON scalar to a Fraction: an int, a Fraction, or a string
    "[+-]digits[/digits]" with surrounding whitespace stripped.

    Numerator and denominator are bounded by the interpreter's limit on
    int-string conversion digits; anything else raises ValueError.
    """
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in "+-" else num
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except (ValueError, ZeroDivisionError):
                pass
    elif isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    elif isinstance(value, int):
        return Fraction(value)
    elif isinstance(value, Fraction):
        return value
    raise ValueError("not a rational: " + _bounded_echo(value))


def parse_exactly(values, n, message, parse):
    """The n entries of values, each read by parse.  Any other count raises
    ValueError(message) before an entry is read: a list can be huge."""
    values = tuple(values)
    if len(values) != n:
        raise ValueError(message)
    return tuple(map(parse, values))


def _bounded_echo(value, form=None, width=40):
    """A rejected value (or a message listing several) written by form, cut
    to width characters plus its length: it can be thousands of digits long.
    Without a form an int or a Fraction is written as format_rational writes
    it and anything else by repr; a number past the interpreter's int-string
    digit limit is named by its size instead."""
    number = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    try:
        text = (form or (format_rational if number else repr))(value)
    except ValueError:
        if not number:
            raise
        big = max(abs(value.numerator), value.denominator)
        d = int(math.log10(big))  # floor(log10(big)), or one off after rounding
        p = 10 ** d
        d += (big >= 10 * p) - (big < p)
        return "a number of %d digits" % (d + 1)
    if len(text) > width:
        text = "%s... (%d characters)" % (text[:width], len(text))
    return text


def format_rational(x):
    """Lowest-terms string: "p/q", or plain "p" for integers.

    A numerator or denominator past the interpreter's int-string digit
    limit raises DomainError (code result-too-large).
    """
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:
        raise _too_large() from None


def _too_large():
    """The error for a result past the interpreter's int-string digit limit."""
    return DomainError("result too large to print: over %d digits"
                       % sys.get_int_max_str_digits(), code="result-too-large")


def parse_extended(value):
    """The one reader of an extended rational: the float +/-inf as it is,
    "inf" / "-inf" (any case, whitespace stripped), else parse_rational."""
    if is_infinite(value):
        return value
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity", "oo"):
            return POS_INF
        if s in ("-inf", "-infinity", "-oo"):
            return NEG_INF
    return parse_rational(value)


def format_extended(x):
    if is_infinite(x):
        return "inf" if x > 0 else "-inf"
    return format_rational(x)
