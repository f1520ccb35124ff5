import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropmaps.errors import DomainError
from tropmaps.rational import (NEG_INF, POS_INF, _bounded_echo, format_rational,
                               parse_extended, parse_rational)


def via_fraction(x):
    """The text every value gets by going through Fraction(x) first."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


class TestFormatRational:
    @given(st.one_of(st.integers(), st.fractions(), st.booleans()))
    def test_ints_and_fractions_match_the_fraction_form(self, x):
        assert format_rational(x) == via_fraction(x)

    @pytest.mark.parametrize("x, text", [(True, "1"), (0.5, "1/2"), ("6/4", "3/2"),
                                         (Fraction(-8, 2), "-4"), (10 ** 30, "1" + "0" * 30)])
    def test_examples(self, x, text):
        assert format_rational(x) == text

    @pytest.mark.parametrize("x", [10 ** 5000, Fraction(1, 10 ** 5000)],
                             ids=["numerator", "denominator"])
    def test_past_the_digit_limit_is_a_coded_error(self, x):
        with pytest.raises(DomainError) as info:
            format_rational(x)
        assert info.value.code == "result-too-large" and info.value.exit_code == 1
        assert "4300 digits" in str(info.value) and len(str(info.value)) < 80


class TestParseRational:
    @pytest.mark.parametrize("value", ["9" * 5000, "x" * 5000, ["1"] * 2000],
                             ids=["digits", "letters", "list"])
    def test_error_echoes_a_bounded_prefix(self, value):
        with pytest.raises(ValueError) as info:
            parse_rational(value)
        text = str(info.value)
        assert len(text) < 200 and "characters)" in text

    def test_short_values_are_echoed_whole(self):
        with pytest.raises(ValueError, match=r"not a rational: '1\.5'$"):
            parse_rational("1.5")

    @pytest.mark.parametrize("text", ["1_000", "\u0661\u0662", "1 / 2", "1/ 2", "+-1", "1/-2",
                                      "0x10", "1.0", "1e3", "/2", "2/", "", "1/0"])
    def test_rejected_strings(self, text):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == "not a rational: " + repr(text)

    @pytest.mark.parametrize("text, x", [(" -3/6 ", Fraction(-1, 2)), ("+7", 7),
                                         ("00012/0004", 3), ("-0", 0),
                                         ("\xa01/2\xa0", Fraction(1, 2))])
    def test_accepted_strings(self, text, x):
        assert parse_rational(text) == x


# The string grammar as a regular expression, applied after stripping: the
# oracle the hand-written reader is held to.
GRAMMAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
LIMIT = sys.get_int_max_str_digits()
# ASCII digits, signs and "/", and what int(), Fraction() or str.isdigit()
# would also take: non-ASCII decimal digits, a superscript two, underscores,
# Unicode spaces, a decimal point, an exponent, and runs of digits at and
# past the int-string digit limit
PIECES = st.sampled_from([*"0123456789+-/", *"\u0661\u0669\uff11\u0967\u00b2_",
                          *" \t\n\x0b\x0c\r\xa0\u2003\u3000\u2028.e",
                          "9" * LIMIT, "1" + "0" * LIMIT])
SPACES = st.text(" \t\n\xa0\u2003\u3000", max_size=2)
GRAMMAR_TEXT = st.one_of(
    st.lists(PIECES, max_size=8).map("".join),
    st.tuples(SPACES, st.from_regex(GRAMMAR, fullmatch=True), SPACES).map("".join),
    st.text(max_size=12))


class TestGrammar:
    @given(GRAMMAR_TEXT)
    def test_strings_read_as_the_grammar_says(self, text):
        match = GRAMMAR.fullmatch(text.strip())
        num, den = match.groups(default="1") if match else ("", "0")
        # accepted: the oracle matches, the denominator is not all zeros and
        # both parts are within the digit limit
        if den.strip("0") and max(len(num.lstrip("+-")), len(den)) <= LIMIT:
            assert parse_rational(text) == Fraction(int(num), int(den))
        else:
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == "not a rational: " + _bounded_echo(text)


class TestParseExtended:
    def test_the_float_infinities_are_returned_as_they_are(self):
        for x in (POS_INF, NEG_INF):
            assert parse_extended(x) is x

    @pytest.mark.parametrize("text, x", [("inf", POS_INF), ("-inf", NEG_INF),
                                         (" INF ", POS_INF), ("6/4", Fraction(3, 2))])
    def test_strings(self, text, x):
        assert parse_extended(text) == x

    @pytest.mark.parametrize("value, message", [(math.nan, "not a rational: nan"),
                                                (0.5, "not a rational: 0.5"),
                                                (True, "booleans are not rationals")])
    def test_any_other_float_or_bool_gets_the_parse_rational_error(self, value, message):
        for parse in (parse_extended, parse_rational):
            with pytest.raises(ValueError) as info:
                parse(value)
            assert str(info.value) == message


class TestBoundedEcho:
    @pytest.mark.parametrize("x, text", [(Fraction(7, 2), "7/2"), (-4, "-4"), (True, "True"),
                                         (4.5, "4.5"), ("x", "'x'"),
                                         # cut only past 40 characters
                                         pytest.param(10 ** 39, "1" + "0" * 39, id="40-digits"),
                                         pytest.param(10 ** 40, "1" + "0" * 39 + "... (41 characters)",
                                                      id="41-digits")])
    def test_numbers_in_the_interchange_form(self, x, text):
        assert _bounded_echo(x) == text

    # math.log10(10 ** 32768) comes out one low, so the digit count needs its
    # upward correction there
    @pytest.mark.parametrize("digits", [4301, 8000, 32769])
    def test_past_the_digit_limit_names_the_size(self, digits):
        top = 10 ** digits - 1
        for x in (top, -top, 10 ** (digits - 1), Fraction(1, top), Fraction(top, 7)):
            for form in (None, repr, format_rational):
                assert _bounded_echo(x, form) == "a number of %d digits" % digits
