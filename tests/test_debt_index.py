from dataclasses import FrozenInstanceError
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kladia import debt_index
from kladia import fixedpoint as fp
from kladia.debt_index import (
    BaselineRef,
    index_kernel,
    normalize,
    policy_factor,
    weighted_bdi,
)
from kladia.errors import NonPositiveLambda
from kladia.weo_ingest import ALL_BLOCS, Bloc, WeoVintage

from conftest import make_columns


def fraction_weights(columns):
    """Independent oracle: exact rational GDP shares, rounded half-even,
    residual on the largest bloc."""
    gdps = dict(zip(ALL_BLOCS, columns[1]))
    total = sum(gdps.values())
    raw = {}
    for bloc, gdp in gdps.items():
        exact = Fraction(gdp * fp.SCALE, total)
        floor = exact.numerator // exact.denominator
        frac = exact - floor
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2 == 1):
            floor += 1
        raw[bloc] = floor
    residual = fp.SCALE - sum(raw.values())
    largest = max(ALL_BLOCS, key=lambda b: (gdps[b], -ALL_BLOCS.index(b)))
    raw[largest] += residual
    return raw


def kernel_weights(columns, baseline):
    """Weights by bloc, through the index kernel."""
    return dict(zip(ALL_BLOCS, index_kernel(*columns, baseline)[0]))


def test_weights_match_rational_oracle(baseline):
    columns = make_columns()
    assert kernel_weights(columns, baseline) == fraction_weights(columns)


def test_weights_dominant_pair_ratio(baseline):
    # two large blocs at GDP 20 and 10 dominate; their weights approach 2/3, 1/3
    gdp = {b: "0.000001" for b in ALL_BLOCS}
    gdp[Bloc.US] = "20"
    gdp[Bloc.EA20] = "10"
    columns = make_columns(gdp=gdp)
    weights = kernel_weights(columns, baseline)
    assert weights == fraction_weights(columns)
    assert abs(weights[Bloc.US] - fp.div_half_even(2 * fp.SCALE, 3)) <= 1000
    assert abs(weights[Bloc.EA20] - fp.div_half_even(fp.SCALE, 3)) <= 1000
    assert sum(weights.values()) == fp.ONE


def test_weights_equal_gdp_residual_on_first_code(baseline):
    gdp = {b: "1000" for b in ALL_BLOCS}
    weights = kernel_weights(make_columns(gdp=gdp), baseline)
    seventh = fp.div_half_even(fp.SCALE, 7)
    assert sum(weights.values()) == fp.ONE
    for b in ALL_BLOCS:
        assert abs(weights[b] - seventh) <= 1
    off = [b for b in ALL_BLOCS if weights[b] != seventh]
    assert off in ([], [Bloc.US])  # tie broken on first bloc in code order


def test_weights_sum_exactly_one_randomized(baseline):
    import random

    rng = random.Random(42)
    for _ in range(50):
        gdp = {b: str(rng.randint(1, 10**8)) for b in ALL_BLOCS}
        columns = make_columns(gdp=gdp)
        weights = kernel_weights(columns, baseline)
        assert sum(weights.values()) == fp.ONE
        assert weights == fraction_weights(columns)


def test_bdi_weighted_sum_oracle(baseline):
    # GDPs 20 and 10 on two blocs and 10^-9 elsewhere give weights
    # 0.666666667, 0.333333333 and 0; hand oracle via Decimal:
    # 0.666666667*120 + 0.333333333*240 = 159.99999996
    gdp = {b: "0.000000001" for b in ALL_BLOCS}
    gdp.update({Bloc.US: "20", Bloc.EA20: "10"})
    debt = {b: "999" for b in ALL_BLOCS}
    debt.update({Bloc.US: "120", Bloc.EA20: "240"})
    weights, bdi = index_kernel(*make_columns(debt=debt, gdp=gdp), baseline)[:2]
    assert weights[ALL_BLOCS.index(Bloc.US)] == fp.from_str("0.666666667")
    assert weights[ALL_BLOCS.index(Bloc.EA20)] == fp.from_str("0.333333333")
    expected = Decimal("0.666666667") * 120 + Decimal("0.333333333") * 240
    assert bdi == fp.from_str(str(expected))
    # and the exact-thirds value is 160: within one part in 10^7
    assert abs(bdi - fp.from_str("160")) <= 100


def test_bdi_constant_ratios(baseline):
    columns = make_columns(debt={b: "100" for b in ALL_BLOCS})
    assert index_kernel(*columns, baseline)[1] == fp.from_str("100")


def test_weighted_bdi_memo_keeps_no_failure():
    # a remembered result is what the uncached half computes, whatever
    # sequence type it came in
    debt, gdp = make_columns()
    first = weighted_bdi(debt, gdp)
    hits = debt_index._weighted_bdi.cache_info().hits
    assert weighted_bdi(list(debt), list(gdp)) == first
    assert debt_index._weighted_bdi.cache_info().hits == hits + 1
    assert first == debt_index._weighted_bdi.__wrapped__(debt, gdp)


def q9(value: Fraction) -> int:
    """Scaled integer nearest to value, ties to even (round() on a Fraction)."""
    return round(value * fp.SCALE)


def fraction_chain(debt, gdp, bdi_ref, lam):
    """Independent oracle for the whole chain on exact fractions, from
    scaled integer inputs to scaled integer outputs."""
    s = fp.SCALE
    weights = [q9(Fraction(v, sum(gdp))) for v in gdp]
    largest = max(range(len(gdp)), key=lambda i: (gdp[i], -i))
    weights[largest] += s - sum(weights)
    bdi = sum(q9(Fraction(w * d, s * s)) for w, d in zip(weights, debt))
    x_norm = q9(Fraction(bdi, bdi_ref))
    x_excess = max(0, x_norm - s)
    g = 0
    if x_excess:
        g = min(q9(Fraction(x_excess, s + q9(Fraction(lam * x_excess, s * s)))),
                s - 1)
    return tuple(weights), bdi, x_norm, x_excess, g


KC7 = len(ALL_BLOCS)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 400 * fp.SCALE), min_size=KC7, max_size=KC7),
    st.lists(st.integers(1, 10**5 * fp.SCALE), min_size=KC7, max_size=KC7),
    st.lists(st.booleans(), min_size=KC7, max_size=KC7),
    st.integers(1, 300 * fp.SCALE),
    st.integers(1, 5 * fp.SCALE),
)
def test_kernel_matches_fraction_oracle(debt, gdp, tie_to_max, bdi_ref, lam):
    # blocs flagged in tie_to_max share the largest GDP, so the residual's
    # tie-break on bloc order is exercised
    top = max(gdp)
    gdp = [top if tie else v for v, tie in zip(gdp, tie_to_max)]
    baseline = BaselineRef(
        bdi_ref, WeoVintage("2025-October", date(2025, 10, 15), "ab" * 32), lam)
    result = index_kernel(tuple(debt), tuple(gdp), baseline)
    assert result == fraction_chain(debt, gdp, bdi_ref, lam)
    assert sum(result[0]) == fp.ONE


# what the entry gates admit: a debt ratio >= 0, a GDP >= 10^-9 and a
# baseline's bdi_ref and lambda > 0, each read by `fp.from_str`, so at most
# 19 integer digits
ADMITTED = 10 ** 28 - 1


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, ADMITTED), min_size=KC7, max_size=KC7),
    st.lists(st.integers(1, ADMITTED), min_size=KC7, max_size=KC7),
    st.integers(1, ADMITTED),
    st.integers(1, ADMITTED),
)
def test_kernel_never_raises_on_admitted_inputs(debt, gdp, bdi_ref, lam):
    # the kernel checks nothing, so on every set the gates let in it must
    # give weights summing to 1, a nonnegative bdi and 0 <= g < 1
    baseline = BaselineRef(
        bdi_ref, WeoVintage("2025-October", date(2025, 10, 15), "ab" * 32), lam)
    weights, bdi, x_norm, x_excess, g = index_kernel(tuple(debt), tuple(gdp), baseline)
    assert sum(weights) == fp.ONE and min(weights) >= 0
    assert bdi >= 0 and x_norm >= 0 and x_excess >= 0
    assert 0 <= g < fp.ONE


def test_normalize_cases(vintage):
    ref = BaselineRef(fp.from_str("100"), vintage, fp.ONE)
    assert normalize(fp.from_str("100"), ref) == (fp.ONE, 0)
    assert normalize(fp.from_str("150"), ref) == (fp.from_str("1.5"),
                                                  fp.from_str("0.5"))
    assert normalize(fp.from_str("80"), ref) == (fp.from_str("0.8"), 0)


def test_baseline_immutable_after_freeze(vintage):
    ref = BaselineRef(fp.from_str("100"), vintage, fp.ONE)
    with pytest.raises(FrozenInstanceError):
        ref.bdi_ref = fp.from_str("90")
    with pytest.raises(FrozenInstanceError):
        ref.genesis_vintage = vintage
    with pytest.raises(FrozenInstanceError):
        ref.lam = fp.from_str("2")
    assert (ref.bdi_ref, ref.lam) == (fp.from_str("100"), fp.ONE)


@pytest.mark.parametrize("bdi_ref", [0, -1])
def test_baseline_rejects_nonpositive_bdi_ref(vintage, bdi_ref):
    with pytest.raises(ValueError):
        BaselineRef(bdi_ref, vintage, fp.ONE)


@pytest.mark.parametrize("lam", [0, -fp.ONE])
def test_baseline_rejects_nonpositive_lambda(vintage, lam):
    with pytest.raises(NonPositiveLambda):
        BaselineRef(fp.from_str("100"), vintage, lam)


def test_policy_factor_values():
    assert policy_factor(0, fp.ONE) == 0
    # direct high-precision oracle: 0.5 / 1.5 = 1/3
    g = policy_factor(fp.from_str("0.5"), fp.ONE)
    assert abs(g - fp.div_half_even(fp.SCALE, 3)) <= 1
    # asymptote: the exact value 10^6/(1+10^6) lies in (0.999999, 1); at
    # 9-digit precision it rounds to the lower endpoint and stays below 1
    exact = Fraction(10**6, 1 + 10**6)
    assert Fraction(999999, 10**6) < exact < 1
    g_big = policy_factor(10**6 * fp.SCALE, fp.ONE)
    assert abs(g_big - round(exact * fp.SCALE)) <= 1
    assert g_big < fp.ONE


@settings(max_examples=300)
@given(
    st.integers(0, 10 * fp.SCALE),
    st.integers(0, 10 * fp.SCALE),
    st.integers(1, 5 * fp.SCALE),
)
def test_policy_factor_monotone_and_bounded(x1, x2, lam):
    lo, hi = sorted((x1, x2))
    g_lo, g_hi = policy_factor(lo, lam), policy_factor(hi, lam)
    assert 0 <= g_lo < fp.ONE and 0 <= g_hi < fp.ONE
    assert g_lo <= g_hi


def test_policy_factor_purity(baseline):
    # level-based: same inputs give the same g regardless of any history
    columns = make_columns()
    first = index_kernel(*columns, baseline)
    # unrelated computation in between
    index_kernel(*make_columns(debt={b: "300" for b in ALL_BLOCS}), baseline)
    assert index_kernel(*columns, baseline) == first
