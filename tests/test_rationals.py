from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokerlab.errors import MalformedInput
from brokerlab.rationals import MAX_NUMBER_DIGITS, format_number, parse_number


def test_parses_integers_and_strings():
    assert parse_number(6) == Fraction(6)
    assert parse_number("1.5") == Fraction(3, 2)
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number({"num": 3, "den": 4}) == Fraction(3, 4)


@pytest.mark.parametrize(
    "bad",
    [1.5, "1.0.0", "abc", {"num": 1}, {"num": 1, "den": 0}, {"num": "1", "den": 2}, True, None],
)
def test_rejects_inexact_or_malformed(bad):
    with pytest.raises(MalformedInput):
        parse_number(bad)


def test_exponents_are_expanded_within_the_digit_limit():
    assert parse_number("1.5e3") == 1500
    assert parse_number("25E-2") == Fraction(1, 4)
    assert parse_number(f"1e{MAX_NUMBER_DIGITS - 1}") == 10 ** (MAX_NUMBER_DIGITS - 1)


@pytest.mark.parametrize(
    "huge",
    ["1e999999999", "-1e-999999999", f"1e{MAX_NUMBER_DIGITS}", f"1.5e{MAX_NUMBER_DIGITS - 1}"],
)
def test_exponents_past_the_digit_limit_are_refused_unexpanded(huge):
    # Fraction alone would spend minutes building the power of ten
    with pytest.raises(MalformedInput, match=f"^value: .* more than {MAX_NUMBER_DIGITS} digits"):
        parse_number(huge, "value")


@given(st.fractions())
def test_format_parse_round_trip(x: Fraction):
    assert parse_number(format_number(x)) == x


def test_format_prefers_plain_strings_for_integers():
    assert format_number(Fraction(6)) == "6"
    assert format_number(Fraction(3, 4)) == {"num": 3, "den": 4}
