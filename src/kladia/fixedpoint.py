"""Scaled-integer decimal arithmetic.

All policy-path math runs on integers scaled by 10^9 (nine fractional
digits), with half-even rounding at operation boundaries. No binary
floating point touches any value that feeds a supply decision, so replay
is bit-identical across platforms.
"""

from __future__ import annotations

import re
from decimal import Decimal, DecimalException

DIGITS = 9
SCALE = 10 ** DIGITS

ONE = SCALE  # 1.000000000 in scaled units

# A plain ASCII decimal that needs no rounding: at most 19 + 9 digits, so
# Decimal's 28-digit context would hold it exactly too.
_PLAIN = re.compile(r"-?[0-9]{1,19}(?:\.[0-9]{1,9})?").fullmatch


def from_str(text: str) -> int:
    """Parse a decimal string into a scaled integer (half-even at 9 digits).

    Raises ValueError for anything else, a value too long for Decimal's
    28-digit context, a bool (which Decimal would take as 0 or 1) or
    another type Decimal does not convert included.
    """
    if isinstance(text, str) and _PLAIN(text):
        whole, _, frac = text.partition(".")
        return int(whole + frac.ljust(DIGITS, "0"))
    if isinstance(text, bool):
        raise ValueError(f"not a decimal: {text!r}")
    try:
        d = Decimal(text)
        if not d.is_finite():
            raise ValueError(f"not finite: {text!r}")
        scaled = d.scaleb(DIGITS).quantize(Decimal(1), rounding="ROUND_HALF_EVEN")
    except DecimalException as exc:
        raise ValueError(f"not a decimal of at most 28 digits: {text!r}") from exc
    except TypeError as exc:
        raise ValueError(f"not a decimal: {text!r}") from exc
    return int(scaled)


# what to_str renders for a non-negative value: no sign, no leading zero
CANONICAL = re.compile(r"(?:0|[1-9][0-9]*)\.[0-9]{9}")


def to_str(value: int) -> str:
    """Render with exactly 9 fractional digits (canonical form)."""
    if value < 0:
        return "-%d.%09d" % divmod(-value, SCALE)
    return "%d.%09d" % divmod(value, SCALE)


def div_half_even(num: int, den: int) -> int:
    """Nearest-integer division with ties to even."""
    if den == 0:
        raise ZeroDivisionError("division by zero")
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)  # Python floors, so r >= 0
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def mul(a: int, b: int) -> int:
    """Product of two scaled values, half-even back to 9 digits."""
    return div_half_even(a * b, SCALE)


def div(a: int, b: int) -> int:
    """Quotient of two scaled values, half-even at 9 digits."""
    return div_half_even(a * SCALE, b)


def scale_amount_down(amount: int, factor: int) -> int:
    """amount (integer units) * factor (scaled), rounded DOWN.

    Token-unit outputs round down so the engine never over-releases.
    """
    if amount < 0:
        raise ValueError("amount must be nonnegative")
    if factor < 0:
        raise ValueError("factor must be nonnegative")
    return (amount * factor) // SCALE


def scale_amount_remainder(amount: int, factor: int) -> int:
    """Fractional remainder (in 1/SCALE units) dropped by scale_amount_down."""
    return (amount * factor) % SCALE
