import csv
import hashlib
import io
import random
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kladia import fixedpoint as fp
from kladia.errors import DuplicateBloc, MalformedFile, NegativeValue, NoPriorValue
from kladia.weo_ingest import (
    ALL_BLOCS,
    Bloc,
    SnapshotRule,
    WeoVintage,
    apply_missing_data_rule,
    next_business_day,
    parse_weo_snapshot,
    resolve_snapshot_date,
)

from conftest import DEBT_LEVELS, GDP_LEVELS, PLAIN

PUB = date(2024, 10, 22)


def snapshot_bytes(skip=(), extra_rows=()):
    lines = ["bloc,series,value,vintage"]
    for b in ALL_BLOCS:
        if b in skip:
            continue
        lines.append(f"{b.value},GGXWDG_NGDP,{DEBT_LEVELS[b]},2024-October")
        lines.append(f"{b.value},NGDPD,{GDP_LEVELS[b]},2024-October")
    lines.extend(extra_rows)
    return ("\n".join(lines) + "\n").encode()


def test_full_coverage_happy_path():
    raw = snapshot_bytes()
    parsed = parse_weo_snapshot(raw, "2024-October", PUB)
    assert parsed.debt_ratios == tuple(fp.from_str(DEBT_LEVELS[b]) for b in ALL_BLOCS)
    assert parsed.nominal_gdps == tuple(fp.from_str(GDP_LEVELS[b]) for b in ALL_BLOCS)
    assert parsed.missing() == []
    # independent oracle: hashlib over the same bytes
    assert parsed.vintage.dataset_hash == hashlib.sha256(raw).hexdigest()


def test_missing_kr_yields_marker():
    parsed = parse_weo_snapshot(snapshot_bytes(skip=(Bloc.KR,)), "2024-October", PUB)
    assert parsed.missing() == [Bloc.KR]
    assert parsed.debt_ratios[-1] is None and parsed.nominal_gdps[-1] is None
    assert None not in parsed.debt_ratios[:-1] + parsed.nominal_gdps[:-1]


def test_duplicate_us_row_rejected():
    raw = snapshot_bytes(extra_rows=["US,GGXWDG_NGDP,130,2024-October"])
    with pytest.raises(DuplicateBloc):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_malformed_inputs():
    with pytest.raises(MalformedFile):
        parse_weo_snapshot(b"", "2024-October", PUB)
    with pytest.raises(MalformedFile):
        parse_weo_snapshot(b"wrong,header,row,here\n", "2024-October", PUB)
    raw = snapshot_bytes(extra_rows=["XX,GGXWDG_NGDP,1,2024-October"])
    with pytest.raises(MalformedFile):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_a_snapshot_that_is_not_utf8_is_malformed():
    with pytest.raises(MalformedFile, match=r"^snapshot is not valid UTF-8$"):
        parse_weo_snapshot(snapshot_bytes() + b"\xff", "2024-October", PUB)


@pytest.mark.parametrize("cell, error", [
    ("270\r00", "new-line character seen in unquoted field"),
    ("9" * 131_073, r"field larger than field limit \(131072\)"),
], ids=["bare-cr", "oversized"])
def test_a_cell_csv_cannot_read_is_malformed(cell, error):
    # the header is line 1 and the fourteen canonical rows are lines 2-15
    raw = snapshot_bytes(extra_rows=[f"US,LUR,{cell},2024-October"])
    with pytest.raises(MalformedFile, match=f"^line 16: {error}"):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_a_bloc_with_one_series_is_malformed():
    raw = snapshot_bytes(skip=(Bloc.KR,), extra_rows=["KR,GGXWDG_NGDP,55,2024-October"])
    with pytest.raises(MalformedFile, match=r"^KR: incomplete series pair "):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_a_gdp_of_zero_is_rejected():
    raw = snapshot_bytes(skip=(Bloc.KR,), extra_rows=[
        "KR,GGXWDG_NGDP,55,2024-October",
        "KR,NGDPD,0,2024-October",
    ])
    with pytest.raises(NegativeValue, match=r"^KR: nominal_gdp <= 0$"):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_negative_values_rejected():
    raw = snapshot_bytes(skip=(Bloc.KR,), extra_rows=[
        "KR,GGXWDG_NGDP,-5,2024-October",
        "KR,NGDPD,1800,2024-October",
    ])
    with pytest.raises(NegativeValue):
        parse_weo_snapshot(raw, "2024-October", PUB)


def test_determinism_same_bytes_same_output():
    raw = snapshot_bytes()
    a = parse_weo_snapshot(raw, "2024-October", PUB)
    b = parse_weo_snapshot(raw, "2024-October", PUB)
    assert a.vintage.dataset_hash == b.vintage.dataset_hash
    assert a == b


def test_carry_forward_substitution():
    parsed = parse_weo_snapshot(snapshot_bytes(skip=(Bloc.KR,)), "2024-October", PUB)
    prior = {Bloc.KR: (fp.from_str("55.0"), fp.from_str("1800")),
             Bloc.US: (fp.from_str("1"), fp.from_str("1"))}  # US is observed
    debt_ratios, nominal_gdps = apply_missing_data_rule(parsed, prior)
    assert debt_ratios == parsed.debt_ratios[:-1] + (fp.from_str("55.0"),)
    assert nominal_gdps == parsed.nominal_gdps[:-1] + (fp.from_str("1800"),)


def test_carry_forward_identity_when_nothing_missing():
    parsed = parse_weo_snapshot(snapshot_bytes(), "2024-October", PUB)
    resolved = apply_missing_data_rule(parsed, {})
    assert resolved == (parsed.debt_ratios, parsed.nominal_gdps)


def test_no_prior_value_is_error():
    parsed = parse_weo_snapshot(snapshot_bytes(skip=(Bloc.KR,)), "2024-October", PUB)
    with pytest.raises(NoPriorValue, match="^KR missing and no confirmed prior value$"):
        apply_missing_data_rule(parsed, {Bloc.US: (fp.ONE, fp.ONE)})


def test_snapshot_date_october_plus_ten():
    # oracle: plain calendar arithmetic with timedelta
    decision = resolve_snapshot_date(date(2024, 10, 22), date(2024, 11, 1),
                                     "2024-October")
    assert decision.rule_branch is SnapshotRule.OCTOBER_PLUS_10
    ts = decision.snapshot_timestamp
    assert (ts.year, ts.month, ts.day, ts.hour) == (2024, 11, 1, 12)


def test_snapshot_date_october_publication_on_december_first():
    # published by December 1 includes December 1 itself
    decision = resolve_snapshot_date(date(2024, 12, 1), date(2024, 12, 1),
                                     "2024-October")
    assert decision.rule_branch is SnapshotRule.OCTOBER_PLUS_10
    ts = decision.snapshot_timestamp
    assert (ts.year, ts.month, ts.day, ts.hour) == (2024, 12, 11, 12)


def test_snapshot_date_december_fallback_weekday():
    # Dec 10 2024 is a Tuesday
    decision = resolve_snapshot_date(None, date(2024, 12, 1), "2024-April")
    assert decision.rule_branch is SnapshotRule.DECEMBER_FALLBACK
    ts = decision.snapshot_timestamp
    assert (ts.month, ts.day, ts.hour) == (12, 10, 12)
    assert decision.fallback_note


def test_snapshot_date_december_fallback_weekend_shift():
    # Dec 10 2022 is a Saturday; next business day is Monday Dec 12
    decision = resolve_snapshot_date(None, date(2022, 12, 1), "2022-April")
    ts = decision.snapshot_timestamp
    assert (ts.year, ts.month, ts.day) == (2022, 12, 12)
    assert ts.weekday() == 0


def test_next_business_day_respects_holiday_calendar():
    # Monday Dec 12 is a holiday: shift lands on Tuesday Dec 13
    holidays = frozenset({date(2022, 12, 12)})
    assert next_business_day(date(2022, 12, 10), holidays) == date(2022, 12, 13)


def test_vintage_id_validation():
    with pytest.raises(MalformedFile):
        WeoVintage("October2024", PUB, "00" * 32)


# --- the row checks, in their order: column count, bloc, series filter,
# vintage, duplicate, value ------------------------------------------------

def values(raw):
    """(bloc, debt, gdp) per KC7 bloc, None for a bloc the file lacks."""
    parsed = parse_weo_snapshot(raw, "2024-October", PUB)
    return list(zip(ALL_BLOCS, parsed.debt_ratios, parsed.nominal_gdps))


def malformed_message(extra_rows):
    with pytest.raises(MalformedFile) as info:
        parse_weo_snapshot(snapshot_bytes(extra_rows=extra_rows), "2024-October", PUB)
    return str(info.value)


def test_unknown_bloc_on_an_extra_series_row():
    # the bloc is checked before the series filter; the header is line 1 and
    # the fourteen canonical rows are lines 2-15
    assert (malformed_message(["XX,LUR,1,2024-October"])
            == "line 16: unknown bloc 'XX'")


def test_column_count_is_checked_first():
    assert (malformed_message(["US,NGDPD,1"])
            == "line 16: expected 4 columns, got 3")
    assert (malformed_message(["XX,LUR,1"])
            == "line 16: expected 4 columns, got 3")


def test_vintage_mismatch():
    assert (malformed_message(["US,NGDPD,1,2023-October"])
            == "line 16: vintage '2023-October' != '2024-October'")
    # an extra series is dropped before its vintage is looked at
    parse_weo_snapshot(snapshot_bytes(extra_rows=["US,LUR,1,2023-October"]),
                       "2024-October", PUB)


def test_duplicate_is_checked_before_the_value():
    raw = snapshot_bytes(extra_rows=["US,NGDPD,n/a,2024-October"])
    with pytest.raises(DuplicateBloc, match="duplicate NGDPD row for US"):
        parse_weo_snapshot(raw, "2024-October", PUB)


@pytest.mark.parametrize("cell", ["n/a", " n/a\t"])
def test_not_a_number_on_a_canonical_row_and_on_an_extra_row(cell):
    raw = snapshot_bytes(skip=(Bloc.KR,), extra_rows=[
        "KR,LUR,n/a,2024-October",             # extra series: ignored
        "KR,GGXWDG_NGDP,55,2024-October",
        f"KR,NGDPD,{cell},2024-October",
    ])
    with pytest.raises(MalformedFile, match=r"^line 16: bad value 'n/a'$"):
        parse_weo_snapshot(raw, "2024-October", PUB)
    raw = snapshot_bytes(extra_rows=["KR,LUR,n/a,2024-October"])
    assert values(raw) == values(snapshot_bytes())


@pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "padded"])
def test_blank_lines_are_skipped_and_counted(blank):
    lines = snapshot_bytes().decode().split("\n")
    spaced = "\n".join(lines[:3] + ["", blank] + lines[3:]) + "\n\n"
    assert values(spaced.encode()) == values(snapshot_bytes())
    # header, two rows, two blank lines, twelve rows, two blank lines
    with pytest.raises(MalformedFile, match=r"^line 20: unknown bloc 'XX'$"):
        parse_weo_snapshot((spaced + "XX,LUR,1,2024-October\n").encode(),
                           "2024-October", PUB)


@pytest.mark.parametrize("row", [
    ' US , NGDPD ,\t27000 , 2024-October ',
    '"US","NGDPD","27000","2024-October"',
    '" US ",NGDPD,"27000\u3000",2024-October\xa0',
    'US,NGDPD,\u300027000,2024-October\xa0',  # padding outside ASCII only
])
def test_padded_and_quoted_cells(row):
    raw = snapshot_bytes(skip=(Bloc.US,), extra_rows=[
        "US,GGXWDG_NGDP,120,2024-October", row])
    assert values(raw) == values(snapshot_bytes())


def test_crlf_line_ends():
    raw = snapshot_bytes().replace(b"\n", b"\r\n")
    assert values(raw) == values(snapshot_bytes())


def test_header_messages():
    with pytest.raises(MalformedFile, match=r"^empty snapshot file$"):
        parse_weo_snapshot(b"", "2024-October", PUB)
    with pytest.raises(MalformedFile, match=r"^unexpected header: \[\]$"):
        parse_weo_snapshot(b"\n", "2024-October", PUB)
    with pytest.raises(MalformedFile,
                       match=r"^unexpected header: \[' bloc', 'series '\]$"):
        parse_weo_snapshot(b" bloc,series \n", "2024-October", PUB)


# --- the whole parse against csv + Decimal ----------------------------------

EXTRA_SERIES = ("LUR", "PCPIPCH", "GGXCNL_NGDP", "BCA_NGDPD", "NGDP_RPCH")
PADDING = ("", " ", "\t", "  ", "\xa0", "\u3000")


def amount(whole, fraction, places, form):
    """A decimal of at least 1: plain, with more than nine places, with
    leading zeros, or with an exponent."""
    digits = str(fraction).rjust(12, "0")[12 - places:]
    if form == "exponent":
        return f"{whole}{digits}E-{places}"
    text = f"{whole}.{digits}" if places else str(whole)
    return "00" + text if form == "zeros" else text


AMOUNT = st.builds(amount, st.integers(1, 10**7), st.integers(0, 10**12 - 1),
                   st.integers(0, 12), st.sampled_from(["plain", "zeros", "exponent"]))
# only the amounts the parse reads: at most nine places, no exponent
PLAIN_AMOUNT = st.builds(amount, st.integers(1, 10**7), st.integers(0, 10**12 - 1),
                         st.integers(0, 9), st.sampled_from(["plain", "zeros"]))


@st.composite
def snapshots(draw, amounts=AMOUNT):
    """A shuffled extract with extra series and some blocs left out; rows
    padded, quoted, split by blank lines and ended as the draw decides."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for b in ALL_BLOCS:
        if rng.random() < 0.2:
            continue  # the bloc is missing from the file
        rows.append([b.value, "GGXWDG_NGDP", draw(amounts), "2024-October"])
        rows.append([b.value, "NGDPD", draw(amounts), "2024-October"])
        for series in rng.sample(EXTRA_SERIES, rng.randint(0, len(EXTRA_SERIES))):
            rows.append([b.value, series, rng.choice(["n/a", "-4.662", "1e3", ""]),
                         rng.choice(["2024-October", "2023-April"])])
    rng.shuffle(rows)
    # the share of cells padded or quoted, and of rows after a blank line;
    # none in half the draws, so that plain extracts are common
    style = rng.choice([0.0, rng.random()])
    lines = ["bloc,series,value,vintage"]
    for row in rows:
        if rng.random() < style / 4:
            lines.append(rng.choice(["", " \t"]))
        cells = []
        for cell in row:
            if rng.random() < style:
                cell = rng.choice(PADDING) + cell + rng.choice(PADDING)
            cells.append(f'"{cell}"' if rng.random() < style else cell)
        lines.append(",".join(cells))
    end = rng.choice(["\n", "\r\n"])
    return (end.join(lines) + rng.choice(["", end, end * 2])).encode()


def csv_decimal_oracle(raw):
    """values(raw), from csv.reader, str.strip and Decimal; None when a
    canonical-series value is not a plain decimal, which the parse refuses."""
    values = {}
    for row in list(csv.reader(io.StringIO(raw.decode())))[1:]:
        cells = [c.strip() for c in row]
        if len(cells) == 4 and cells[1] in ("GGXWDG_NGDP", "NGDPD"):
            if not PLAIN.fullmatch(cells[2]):
                return None
            # round() on a Fraction is half-even
            values[cells[0], cells[1]] = round(Fraction(Decimal(cells[2])) * fp.SCALE)
    return [(b, values.get((b.value, "GGXWDG_NGDP")), values.get((b.value, "NGDPD")))
            for b in ALL_BLOCS]


@settings(max_examples=200)
@given(snapshots())
def test_parse_matches_csv_and_decimal(raw):
    expected = csv_decimal_oracle(raw)
    if expected is None:
        with pytest.raises(MalformedFile, match=r"^line \d+: bad value "):
            values(raw)
    else:
        assert values(raw) == expected


# most draws above hold a value the parse refuses; these hold none
@settings(max_examples=200)
@given(snapshots(PLAIN_AMOUNT))
def test_parse_of_plain_values_matches_csv_and_decimal(raw):
    assert values(raw) == csv_decimal_oracle(raw)
