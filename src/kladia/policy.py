"""Policy functions mapping the debt factor g into the four supply levers.

All four are continuous and linear in g, clamped at their published
bounds: gross issuance budget, fee-burn fraction, monthly escrow release
cap, and staking emission rate. Token-unit outputs are floored once, at
the token boundary; fractions are half-even at 9 digits. The levers check
nothing themselves: g is in [0, 1) because the ledger's begin_cycle, the
one path to `derive_cycle_factors`, refuses any other, and the locked
balance is nonnegative because conservation keeps every bucket so.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixedpoint as fp


@dataclass(frozen=True)
class PolicyParams:
    """The governable coefficients a cycle's factors are derived from.

    Fractions are scaled decimals; e_min is token base units per month and
    r_base a per-month fraction of the staking reserve. The budget anchors
    are not parameters: each cycle derives them from the escrow and staking
    balances and passes them to the levers.
    """

    alpha_i: int = fp.from_str("0.5")
    beta_b: int = fp.from_str("0.5")
    alpha_e: int = fp.from_str("0.5")
    gamma: int = fp.from_str("0.5")
    b_base: int = fp.from_str("0.25")
    b_max: int = fp.from_str("0.9")
    e_min: int = 0
    r_base: int = fp.from_str("0.001")
    staking_multiplier: int = fp.ONE  # opaque governable multiplier on r_base

    def __post_init__(self):
        if not (0 <= self.alpha_i <= fp.ONE):
            raise ValueError("alpha_i must be in [0, 1]")
        if not (0 <= self.alpha_e <= fp.ONE):
            raise ValueError("alpha_e must be in [0, 1]")
        if self.beta_b < 0 or self.gamma < 0:
            raise ValueError("beta_b and gamma must be nonnegative")
        if not (0 <= self.b_base <= self.b_max <= fp.ONE):
            raise ValueError("need 0 <= b_base <= b_max <= 1")
        if self.e_min < 0 or self.r_base < 0:
            raise ValueError("budgets and rates must be nonnegative")

    def effective_r_base(self) -> int:
        return fp.mul(self.r_base, self.staking_multiplier)


@dataclass(frozen=True)
class PolicyFactors:
    """The four bound outputs for one annual cycle, at a fixed g."""

    burn_fraction: int
    escrow_cap: int       # token base units per month
    staking_rate: int
    issuance_budget: int  # token base units for the year
    g_used: int


def _shrunk(amount: int, alpha: int, g: int) -> int:
    """floor(amount * (1 - alpha * g)) for a token amount, alpha in [0, 1]
    and g in [0, 1); the factor is never rounded on its own."""
    return amount * (fp.SCALE * fp.SCALE - alpha * g) // (fp.SCALE * fp.SCALE)


def issuance_budget(params: PolicyParams, g: int, i_base: int,
                    locked_unburned: int) -> int:
    """Annual gross release budget: the anchor i_base (token base units a
    year), shrinking linearly in g.

    Capped by the locked, unburned balance: releases can never exceed what
    is actually locked.
    """
    return min(_shrunk(i_base, params.alpha_i, g), locked_unburned)


def burn_fraction(params: PolicyParams, g: int) -> int:
    """min(b_max, b_base + beta_b * g); nondecreasing in g."""
    return min(params.b_max, params.b_base + fp.mul(params.beta_b, g))


def escrow_cap(params: PolicyParams, g: int, e_base: int) -> int:
    """max(e_min, e_base * (1 - alpha_e * g)), e_base the monthly anchor in
    token base units; never below the floor."""
    return max(params.e_min, _shrunk(e_base, params.alpha_e, g))


def staking_rate(params: PolicyParams, g: int) -> int:
    """max(0, (1 - gamma * g) * r_base); gamma = 0 leaves the rate flat."""
    factor = fp.ONE - fp.mul(params.gamma, g)
    if factor <= 0:
        return 0
    return fp.mul(factor, params.effective_r_base())


def derive_cycle_factors(
    params: PolicyParams, g: int, e_base: int, i_base: int, locked_unburned: int
) -> PolicyFactors:
    """Bundle the four levers for one annual cycle at a constant g and the
    cycle's budget anchors."""
    return PolicyFactors(
        burn_fraction=burn_fraction(params, g),
        escrow_cap=escrow_cap(params, g, e_base),
        staking_rate=staking_rate(params, g),
        issuance_budget=issuance_budget(params, g, i_base, locked_unburned),
        g_used=g,
    )
