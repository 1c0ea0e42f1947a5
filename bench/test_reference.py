"""Pin the benchmark's reference to hand-derived values.

Run with: python3 -m pytest -q bench/test_reference.py
"""

from fractions import Fraction

import reference as ref

EQUAL_GDP = {b: Fraction(2000) for b in ref.BLOCS}


def flat(value):
    return {b: Fraction(value) for b in ref.BLOCS}


def test_bdi_150_over_100_gives_one_third():
    # X = 1.5, x = 0.5, g = 0.5 / 1.5 = 0.333333333
    out = ref.index(flat(150), EQUAL_GDP, Fraction(100), Fraction(1))
    assert ref.fmt(out["bdi"]) == "150.000000000"
    assert ref.fmt(out["x_norm"]) == "1.500000000"
    assert ref.fmt(out["g"]) == "0.333333333"


def test_at_baseline_g_is_zero():
    out = ref.index(flat(100), EQUAL_GDP, Fraction(100), Fraction(1))
    assert out["x_norm"] == 1 and out["x_excess"] == 0 and out["g"] == 0


def test_below_baseline_clamps_excess_to_zero():
    x_norm, x_excess, g = ref.policy_factor(Fraction(80), Fraction(100), Fraction(1))
    assert ref.fmt(x_norm) == "0.800000000" and x_excess == 0 and g == 0


def test_saturating_map_values():
    # x = 1 -> 1/2; x = 3 -> 3/4; lambda = 2, x = 1 -> 1/3
    assert ref.policy_factor(Fraction(200), Fraction(100), Fraction(1))[2] == Fraction(1, 2)
    assert ref.policy_factor(Fraction(400), Fraction(100), Fraction(1))[2] == Fraction(3, 4)
    g = ref.policy_factor(Fraction(200), Fraction(100), Fraction(2))[2]
    assert ref.fmt(g) == "0.333333333"


def test_equal_weights_put_residual_on_first_bloc():
    # 1/7 = 0.142857142857... -> 0.142857143; seven of them sum to
    # 1.000000001, so the first bloc in KC7 order (all tie) takes -1e-9
    w = ref.weights(EQUAL_GDP)
    assert ref.fmt(w["US"]) == "0.142857142"
    assert all(ref.fmt(w[b]) == "0.142857143" for b in ref.BLOCS[1:])
    assert sum(w.values()) == 1


def test_residual_goes_to_largest_gdp_bloc():
    # GDP 3 for JP, 1 elsewhere: 3/9 = 0.333333333, 1/9 = 0.111111111,
    # sum = 0.999999999, so JP takes +1e-9
    gdp = {b: Fraction(1) for b in ref.BLOCS}
    gdp["JP"] = Fraction(3)
    w = ref.weights(gdp)
    assert ref.fmt(w["JP"]) == "0.333333334"
    assert ref.fmt(w["US"]) == "0.111111111"


def test_weighted_terms_round_half_even():
    # weight 0.5 on two blocs at 0.000000001 each: each term is
    # 0.0000000005 and rounds to even (0), so the BDI is 0
    assert ref.q9(Fraction(1, 2 * ref.SCALE)) == 0
    assert ref.q9(Fraction(3, 2 * ref.SCALE)) == Fraction(2, ref.SCALE)


def test_lower_median():
    assert ref.lower_median([Fraction(v) for v in (3, 1, 2, 4)]) == 2
    assert ref.lower_median([Fraction(v) for v in (5, 1, 3)]) == 3
    assert ref.lower_median([Fraction(7)]) == 7


def test_fmt_round_trips_published_strings():
    for text in ("0.000000000", "150.000000000", "-1.250000000", "27000.123456789"):
        assert ref.fmt(ref.dec(text)) == text
