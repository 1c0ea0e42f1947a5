from decimal import ROUND_HALF_EVEN, Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PLAIN
from kladia import fixedpoint as fp


def test_parse_and_render_round_trip():
    assert fp.from_str("1.5") == 1_500_000_000
    assert fp.to_str(1_500_000_000) == "1.500000000"
    assert fp.from_str("0") == 0
    assert fp.to_str(0) == "0.000000000"
    assert fp.from_str("-2.25") == -2_250_000_000


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        fp.from_str("abc")
    with pytest.raises(ValueError):
        fp.from_str("NaN")
    with pytest.raises(ValueError):
        fp.from_str("Infinity")
    for value in (None, {}, [1]):
        with pytest.raises(ValueError):
            fp.from_str(value)


def test_half_even_at_ninth_digit():
    # a 10th place is not read at all, so no value is rounded on the way in
    for text in ("0.0000000005", "0.0000000015", "0.0000000025"):
        with pytest.raises(ValueError, match="not a decimal"):
            fp.from_str(text)


def test_div_half_even_matches_decimal():
    for num, den in [(1, 3), (2, 3), (5, 2), (7, 2), (-5, 2), (100, 7)]:
        expected = int(
            (Decimal(num) / Decimal(den)).quantize(
                Decimal(1), rounding="ROUND_HALF_EVEN"
            )
        )
        assert fp.div_half_even(num, den) == expected
    with pytest.raises(ZeroDivisionError):
        fp.div_half_even(1, 0)
    with pytest.raises(ZeroDivisionError):
        fp.div(1, 0)


@given(st.integers(-10**18, 10**18), st.integers(1, 10**18))
def test_div_half_even_is_nearest(num, den):
    q = fp.div_half_even(num, den)
    assert abs(num - q * den) * 2 <= den


def test_mul_div_identity_like():
    a = fp.from_str("123.456789")
    assert fp.mul(a, fp.ONE) == a
    assert fp.div(a, fp.ONE) == a


def test_scale_amount_down_floors():
    assert fp.scale_amount_down(100, fp.from_str("0.333333333")) == 33
    assert fp.scale_amount_down(1000, fp.from_str("0.4")) == 400


# Strings for from_str: plain ASCII decimals on both sides of its limits
# (19 integer and 9 fractional digits), and the spellings it refuses that
# Decimal would read: signs, padding, exponents, underscores, non-ASCII
# digits, bare dots, special values, more than 9 places.
DECIMAL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,22}(\.[0-9]{0,12})?", fullmatch=True),
    st.lists(st.sampled_from(
        ["0", "7", "19", "5", "0000000005", "9" * 19, ".", "-", "+", "e",
         "E-3", "e+2", "_", " ", "\t", "\n", "\u0663", "\uff11", "\u00b2"]),
        max_size=8).map("".join),
    st.sampled_from(["NaN", "-Infinity", "sNaN", "inf", "", ".5", "1.",
                     "-0", "1_000.5", "1e-10", " 2.5", "1" + "0" * 19,
                     "-" + "9" * 19 + ".999999999", "9" * 19 + ".9999999995",
                     "0" * 25 + "1.5"]),
)


@settings(max_examples=300)
@given(DECIMAL_TEXT)
def test_from_str_equals_decimal(text):
    # the one plain spelling reads as Decimal reads it; every other raises
    if PLAIN.fullmatch(text):
        assert fp.from_str(text) == int(
            Decimal(text).scaleb(fp.DIGITS).quantize(1, ROUND_HALF_EVEN))
    else:
        with pytest.raises(ValueError, match="not a decimal"):
            fp.from_str(text)


def test_from_str_of_a_json_number():
    # a decimal in a baseline or submission file is a JSON string; a JSON
    # number is refused rather than read through a binary float
    for value in (100, 0.1, 0.1234567891):
        with pytest.raises(ValueError, match="not a decimal"):
            fp.from_str(value)


@pytest.mark.parametrize("value", [True, False])
def test_from_str_rejects_a_json_bool(value):
    # bool is an int subclass, but no JSON value other than a string is read
    with pytest.raises(ValueError, match="not a decimal"):
        fp.from_str(value)
