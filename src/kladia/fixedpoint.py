"""Scaled-integer decimal arithmetic.

All policy-path math runs on integers scaled by 10^9 (nine fractional
digits), with half-even rounding at operation boundaries. A decimal is
read in one plain spelling, exactly (`from_str`), so no binary floating
point and no rounding touches any value that feeds a supply decision, and
replay is bit-identical across platforms.
"""

from __future__ import annotations

import re

DIGITS = 9
SCALE = 10 ** DIGITS

ONE = SCALE  # 1.000000000 in scaled units

# The one spelling read from outside: ASCII digits, an optional "-", at most
# 9 places, so nothing is rounded on the way in, and at most 19 integer
# digits, which bounds the size of any value a file hands to the arithmetic.
_PLAIN = re.compile(r"-?[0-9]{1,19}(?:\.[0-9]{1,9})?").fullmatch


def from_str(text: str) -> int:
    """Parse a plain decimal string into a scaled integer, exactly.

    Any other spelling (an exponent, a "+", padding, "_", a non-ASCII
    digit, a 10th place, a special value) raises ValueError, and so does
    any type but `str`, a JSON number or bool included.
    """
    if not (isinstance(text, str) and _PLAIN(text)):
        raise ValueError(f"not a decimal: {text!r}")
    whole, _, frac = text.partition(".")
    return int(whole + frac.ljust(DIGITS, "0"))


# what to_str renders for a non-negative value: no sign, no leading zero
CANONICAL = re.compile(r"(?:0|[1-9][0-9]*)\.[0-9]{9}")


def to_str(value: int) -> str:
    """Render with exactly 9 fractional digits (canonical form)."""
    if value < 0:
        return "-%d.%09d" % divmod(-value, SCALE)
    return "%d.%09d" % divmod(value, SCALE)


def div_half_even(num: int, den: int) -> int:
    """Nearest-integer division with ties to even, for den > 0 (every
    caller's: SCALE, a baseline's bdi_ref, a GDP total, 1 + lambda*x)."""
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
    """amount (integer units) * factor (scaled), rounded DOWN so the engine
    never over-releases; both are nonnegative where they enter the program."""
    return (amount * factor) // SCALE
