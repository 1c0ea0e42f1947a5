from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kladia import fixedpoint as fp
from kladia.policy import (
    PolicyParams,
    burn_fraction,
    derive_cycle_factors,
    escrow_cap,
    issuance_budget,
    staking_rate,
)

HUGE = 10**18


def params(**kwargs):
    return PolicyParams(**{"r_base": fp.from_str("0.02"), **kwargs})


def test_issuance_at_zero_g():
    p = params()
    assert issuance_budget(p, 0, 1_000, HUGE) == 1_000
    assert issuance_budget(p, 0, 1_000, 700) == 700  # locked reserve binds


def test_issuance_reaches_zero_at_full_sensitivity():
    p = params(alpha_i=fp.ONE)
    assert issuance_budget(p, fp.ONE - 1, 1_000, HUGE) <= 1  # g just below 1


def test_issuance_direct_evaluation():
    p = params(alpha_i=fp.from_str("0.5"))
    # (1 - 0.5*0.4) * 1e8 = 0.8 * 1e8
    assert issuance_budget(p, fp.from_str("0.4"), 100_000_000, HUGE) == 80_000_000


def test_burn_fraction_cases():
    p = params(b_base=fp.from_str("0.2"), beta_b=fp.from_str("0.5"),
               b_max=fp.from_str("0.9"))
    assert burn_fraction(p, 0) == fp.from_str("0.2")
    assert burn_fraction(p, fp.from_str("0.4")) == fp.from_str("0.4")
    clamped = params(b_base=fp.from_str("0.2"), beta_b=fp.from_str("2"),
                     b_max=fp.from_str("0.8"))
    assert burn_fraction(clamped, fp.from_str("0.9")) == fp.from_str("0.8")


def test_escrow_cap_cases():
    p = params(alpha_e=fp.from_str("0.8"))
    assert escrow_cap(p, 0, 100) == 100
    assert escrow_cap(p, fp.from_str("0.5"), 100) == 60
    floored = params(e_min=30, alpha_e=fp.ONE)
    assert escrow_cap(floored, fp.from_str("0.9"), 100) == 30


def test_escrow_cap_moves_by_its_slope():
    # 1e12 * (1 - 0.4 * g): 400 tokens per ulp of g, with no 9-digit factor
    # rounded first (that gave 999999600000, 999999600000, 999999599000, ...)
    p = params(alpha_e=fp.from_str("0.4"))
    caps = [escrow_cap(p, g, 10**12) for g in range(1000, 1005)]
    assert caps == [999999600000, 999999599600, 999999599200,
                    999999598800, 999999598400]


def test_staking_rate_cases():
    flat = params(gamma=0, r_base=fp.from_str("0.02"))
    assert staking_rate(flat, fp.from_str("0.7")) == fp.from_str("0.02")
    clamped = params(gamma=fp.from_str("2"), r_base=fp.from_str("0.02"))
    assert staking_rate(clamped, fp.from_str("0.6")) == 0
    p = params(gamma=fp.from_str("0.5"), r_base=fp.from_str("0.02"))
    assert staking_rate(p, fp.from_str("0.4")) == fp.from_str("0.016")


def test_derive_cycle_factors_neutral():
    p = params(r_base=fp.from_str("0.02"))
    f = derive_cycle_factors(p, 0, 100, 1_000, HUGE)
    assert f.burn_fraction == p.b_base
    assert f.escrow_cap == 100
    assert f.staking_rate == fp.from_str("0.02")
    assert f.issuance_budget == 1_000
    assert f.g_used == 0


def test_derive_cycle_factors_midpoint():
    p = PolicyParams(
        alpha_i=fp.ONE, beta_b=fp.ONE, alpha_e=fp.ONE, gamma=fp.ONE,
        b_base=fp.from_str("0.2"), b_max=fp.ONE,
        e_min=10, r_base=fp.from_str("0.02"),
    )
    g = fp.from_str("0.5")
    f = derive_cycle_factors(p, g, 100, 1_000, HUGE)
    assert f.burn_fraction == fp.from_str("0.7")
    assert f.escrow_cap == 50
    assert f.staking_rate == fp.from_str("0.01")
    assert f.issuance_budget == 500


def test_derive_cycle_factors_limit():
    p = PolicyParams(
        alpha_i=fp.ONE, alpha_e=fp.ONE, gamma=fp.ONE,
        e_min=5, r_base=fp.from_str("0.02"),
    )
    g = fp.ONE - 1
    f = derive_cycle_factors(p, g, 100, 1_000, HUGE)
    assert f.issuance_budget <= 1
    assert f.escrow_cap == 5
    assert f.staking_rate <= 1


def test_param_invariants():
    with pytest.raises(ValueError):
        PolicyParams(b_base=fp.from_str("0.9"), b_max=fp.from_str("0.5"))
    with pytest.raises(ValueError):
        PolicyParams(alpha_i=fp.ONE + 1)
    with pytest.raises(ValueError, match=r"^alpha_e must be in \[0, 1\]$"):
        PolicyParams(alpha_e=fp.ONE + 1)
    with pytest.raises(ValueError):
        PolicyParams(beta_b=-1)
    with pytest.raises(ValueError):
        PolicyParams(e_min=-1)
    with pytest.raises(ValueError, match="^budgets and rates must be nonnegative$"):
        PolicyParams(staking_multiplier=-1)
    PolicyParams(staking_multiplier=0)


# (params, e_base, i_base): the coefficients and the cycle's anchors
param_strategy = st.builds(
    lambda ai, bb, ae, gm, bb2, bm, eb, em, ib, rb: (PolicyParams(
        alpha_i=ai, beta_b=bb, alpha_e=ae, gamma=gm,
        b_base=min(bb2, bm), b_max=bm, e_min=em, r_base=rb,
    ), max(eb, em), ib),
    st.integers(0, fp.ONE),
    st.integers(0, 3 * fp.SCALE),
    st.integers(0, fp.ONE),
    st.integers(0, 3 * fp.SCALE),
    st.integers(0, fp.ONE),
    st.integers(0, fp.ONE),
    st.integers(0, 10**12),
    st.integers(0, 10**9),
    st.integers(0, 10**14),
    st.integers(0, fp.SCALE // 10),
)


@settings(max_examples=300)
@given(param_strategy, st.integers(0, fp.ONE - 1), st.integers(0, fp.ONE - 1))
def test_anti_cyclicality(anchored, ga, gb):
    p, e_base, i_base = anchored
    g1, g2 = sorted((ga, gb))
    assert (issuance_budget(p, g1, i_base, HUGE)
            >= issuance_budget(p, g2, i_base, HUGE))
    assert burn_fraction(p, g1) <= burn_fraction(p, g2) <= p.b_max
    assert escrow_cap(p, g1, e_base) >= escrow_cap(p, g2, e_base) >= p.e_min
    assert staking_rate(p, g1) >= staking_rate(p, g2) >= 0


@settings(max_examples=200)
@given(param_strategy, st.integers(0, fp.ONE - 2))
def test_continuity_lipschitz(anchored, g):
    """One-ulp step in g moves each output by at most its linear slope."""
    p, e_base, _ = anchored
    eps = 1
    g2 = g + eps
    # burn fraction slope: beta_b
    assert abs(burn_fraction(p, g2) - burn_fraction(p, g)) <= \
        fp.scale_amount_down(eps, p.beta_b) + 1
    # staking rate slope: gamma * r_base
    slope_r = fp.mul(p.gamma, p.effective_r_base())
    assert abs(staking_rate(p, g2) - staking_rate(p, g)) <= \
        fp.scale_amount_down(eps, slope_r) + 1
    # escrow cap slope: alpha_e * e_base (token units per unit g), taken
    # exactly: both alpha_e and eps are scaled, so the product is over SCALE**2
    d_cap = abs(escrow_cap(p, g2, e_base) - escrow_cap(p, g, e_base))
    assert d_cap <= (e_base * p.alpha_e * eps) // fp.SCALE**2 + 1


@settings(max_examples=200)
@given(param_strategy, st.integers(0, fp.ONE - 1), st.integers(0, 10**14))
def test_bounds(anchored, g, locked):
    p, e_base, i_base = anchored
    assert 0 <= issuance_budget(p, g, i_base, locked) <= min(i_base, locked)
    assert 0 <= burn_fraction(p, g) <= p.b_max
    assert p.e_min <= escrow_cap(p, g, e_base) <= max(e_base, p.e_min)
    assert 0 <= staking_rate(p, g) <= p.effective_r_base()


def q9(value: Fraction) -> int:
    """Scaled integer nearest to value, ties to even (round() on a Fraction)."""
    return round(value * fp.SCALE)


def fraction_levers(p, e_base, i_base, g, locked):
    """Independent oracle for the four levers on exact fractions. The token
    levers are floored once; the burn fraction and the staking rate round
    half-even at 9 digits where the program does: each product, and the
    effective base rate."""
    s = fp.SCALE
    gf = Fraction(g, s)
    budget = min(int(i_base * (1 - Fraction(p.alpha_i, s) * gf)), locked)
    cap = max(p.e_min, int(e_base * (1 - Fraction(p.alpha_e, s) * gf)))
    burn = min(p.b_max, p.b_base + q9(Fraction(p.beta_b, s) * gf))
    factor = s - q9(Fraction(p.gamma, s) * gf)
    r_eff = q9(Fraction(p.r_base * p.staking_multiplier, s * s))
    rate = q9(Fraction(factor * r_eff, s * s)) if factor > 0 else 0
    return budget, burn, cap, rate


@settings(max_examples=300)
@given(param_strategy, st.integers(0, fp.ONE - 1), st.integers(0, 10**14))
def test_levers_match_fraction_oracle(anchored, g, locked):
    p, e_base, i_base = anchored
    levers = (issuance_budget(p, g, i_base, locked), burn_fraction(p, g),
              escrow_cap(p, g, e_base), staking_rate(p, g))
    assert levers == fraction_levers(p, e_base, i_base, g, locked)
