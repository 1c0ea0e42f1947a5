"""Independent reference for the KC7 index chain, on exact fractions.

Written from the paper's formulas, not from kladia's code, so the
benchmark can check the program's outputs against it:

    w_b   = GDP_b / sum(GDP)           half-even at 9 digits; the rounding
                                       residual goes to the largest-GDP bloc
                                       (ties: first in KC7 order)
    BDI   = sum_b w_b * D_b            each term half-even at 9 digits
    X     = BDI / BDI_ref              half-even at 9 digits
    x     = max(0, X - 1)
    g     = x / (1 + lambda * x)       lambda * x and g half-even at 9 digits,
                                       and g is kept below 1
    median = lower median of the submitted BDIs

Rounding points follow the protocol's fixed-point convention (9 fractional
digits, half-even at every published value), which is part of the
specification: two implementations that round elsewhere disagree in the
last digit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

DIGITS = 9
SCALE = 10 ** DIGITS
ULP = Fraction(1, SCALE)

# The KC7 bloc set in its canonical order (the order breaks weight ties).
BLOCS = ("US", "EA20", "JP", "UK", "CA", "AU", "KR")


def q9(value: Fraction) -> Fraction:
    """Round to 9 fractional digits, ties to even (round() on a Fraction)."""
    return Fraction(round(value * SCALE), SCALE)


def dec(text: str) -> Fraction:
    """Parse a decimal string exactly, then round to 9 digits."""
    return q9(Fraction(text))


def fmt(value: Fraction) -> str:
    """Render a 9-digit value the way published artifacts carry it."""
    units = value * SCALE
    if units.denominator != 1:
        raise ValueError(f"{value} has more than {DIGITS} fractional digits")
    n = units.numerator
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // SCALE}.{n % SCALE:09d}"


def weights(gdp: Mapping[str, Fraction]) -> dict[str, Fraction]:
    total = sum(gdp[b] for b in BLOCS)
    w = {b: q9(gdp[b] / total) for b in BLOCS}
    residual = 1 - sum(w.values())
    if residual:
        largest = max(BLOCS, key=lambda b: (gdp[b], -BLOCS.index(b)))
        w[largest] += residual
    return w


def bdi(debt: Mapping[str, Fraction], gdp: Mapping[str, Fraction]) -> Fraction:
    w = weights(gdp)
    return sum((q9(w[b] * debt[b]) for b in BLOCS), Fraction(0))


def policy_factor(bdi_value: Fraction, bdi_ref: Fraction, lam: Fraction
                  ) -> tuple[Fraction, Fraction, Fraction]:
    """(X, x, g) for one BDI against the frozen baseline."""
    x_norm = q9(bdi_value / bdi_ref)
    x_excess = max(Fraction(0), x_norm - 1)
    if x_excess == 0:
        return x_norm, x_excess, Fraction(0)
    g = q9(x_excess / (1 + q9(lam * x_excess)))
    return x_norm, x_excess, min(g, 1 - ULP)


def index(debt: Mapping[str, Fraction], gdp: Mapping[str, Fraction],
          bdi_ref: Fraction, lam: Fraction) -> dict:
    """The full chain for one set of bloc inputs."""
    b = bdi(debt, gdp)
    x_norm, x_excess, g = policy_factor(b, bdi_ref, lam)
    return {"weights": weights(gdp), "bdi": b, "x_norm": x_norm,
            "x_excess": x_excess, "g": g}


def lower_median(values: Sequence[Fraction]) -> Fraction:
    ranked = sorted(values)
    return ranked[(len(ranked) - 1) // 2]
