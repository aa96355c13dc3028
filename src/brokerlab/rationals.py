"""Exact number handling.

Every money and resource quantity in this package is a ``fractions.Fraction``,
kept in lowest terms with a positive denominator by the stdlib.  JSON carries
numbers as integers, decimal strings ("1.5"), fraction strings ("3/4"), or
``{"num": ..., "den": ...}`` objects; bare floats are rejected because they are
not exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedInput

ZERO = Fraction(0)
ONE = Fraction(1)

# Python's default limit on the digits of an int read from or written as a
# string; a decimal string whose value could exceed it is refused unexpanded
MAX_NUMBER_DIGITS = 4300


def parse_number(value: object, where: str = "number") -> Fraction:
    """Parse a scenario number exactly, rejecting anything lossy."""
    if isinstance(value, bool):
        raise MalformedInput(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise MalformedInput(
            f"{where}: floats are not exact; write the value as a string or as {{num, den}}"
        )
    if isinstance(value, str):
        mantissa, e, exponent = value.lower().partition("e")
        try:
            digits = abs(int(exponent)) + sum(c.isdigit() for c in mantissa) if e else 0
        except ValueError:
            digits = 0  # not a decimal exponent: Fraction refuses it below
        if digits > MAX_NUMBER_DIGITS:
            raise MalformedInput(
                f"{where}: {value!r} would have more than {MAX_NUMBER_DIGITS} digits"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"{where}: cannot parse {value!r} as an exact number") from exc
    if isinstance(value, dict):
        extra = set(value) - {"num", "den"}
        if extra or "num" not in value or "den" not in value:
            raise MalformedInput(f"{where}: expected keys 'num' and 'den', got {sorted(value)}")
        num, den = value["num"], value["den"]
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
            raise MalformedInput(f"{where}: 'num' and 'den' must be integers")
        if den == 0:
            raise MalformedInput(f"{where}: zero denominator")
        return Fraction(num, den)
    raise MalformedInput(f"{where}: expected a number, got {type(value).__name__}")


def format_number(x: Fraction) -> object:
    """Render a Fraction for JSON so that parse_number round-trips it exactly."""
    if x.denominator == 1:
        return str(x.numerator)
    return {"num": x.numerator, "den": x.denominator}
