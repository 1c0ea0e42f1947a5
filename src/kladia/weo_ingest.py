"""WEO snapshot ingestion for the KC7 blocs.

Reads the frozen comma-delimited extract of the macro dataset (columns
``bloc,series,value,vintage``), selects the two canonical series per
bloc, hashes the raw bytes, applies the carry-forward rule for missing
series, and resolves the deterministic annual snapshot date.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from typing import Mapping, Optional

from . import fixedpoint as fp
from .canonical import sha256_hex
from .errors import DuplicateBloc, MalformedFile, NegativeValue, NoPriorValue

DEBT_SERIES = "GGXWDG_NGDP"   # general government gross debt, % of GDP
GDP_SERIES = "NGDPD"          # nominal GDP, USD


class Bloc(Enum):
    """The fixed KC7 bloc set. Closed; never extended at runtime."""

    US = "US"
    EA20 = "EA20"
    JP = "JP"
    UK = "UK"
    CA = "CA"
    AU = "AU"
    KR = "KR"

    # safe: members are identity-compared singletons, hash(str) is already
    # randomized per process, and dicts iterate in insertion order
    __hash__ = object.__hash__


ALL_BLOCS: tuple[Bloc, ...] = tuple(Bloc)
_BLOC_BY_CODE = {b.value: b for b in ALL_BLOCS}
_CANONICAL_SERIES = (DEBT_SERIES, GDP_SERIES)

_VINTAGE_RE = re.compile(
    r"(?P<year>\d{4})-(?P<month>January|February|March|April|May|June|July|"
    r"August|September|October|November|December)"
)
_SHA256_HEX_RE = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class WeoVintage:
    vintage_id: str           # "<year>-<Month>", e.g. "2024-October"
    publication_date: date
    dataset_hash: str         # sha256 of the raw snapshot bytes, lowercase hex

    def __post_init__(self):
        check_vintage(self.vintage_id, self.dataset_hash)


def check_vintage(vintage_id: str, dataset_hash: str) -> None:
    """The date-free vintage check: a "<year>-<Month>" id, lowercase SHA-256 hex."""
    if not (isinstance(vintage_id, str) and _VINTAGE_RE.fullmatch(vintage_id)):
        raise MalformedFile(f"bad vintage id: {vintage_id!r}")
    if not (isinstance(dataset_hash, str) and _SHA256_HEX_RE.fullmatch(dataset_hash)):
        raise MalformedFile(f"bad dataset hash: {dataset_hash!r}")


def check_ranges(bloc: Bloc, debt_ratio: int, nominal_gdp: int) -> None:
    """Reject a negative debt ratio or a non-positive GDP for one bloc."""
    if debt_ratio < 0:
        raise NegativeValue(f"{bloc.value}: debt_ratio < 0")
    if nominal_gdp <= 0:
        raise NegativeValue(f"{bloc.value}: nominal_gdp <= 0")


@dataclass(frozen=True)
class ParsedSnapshot:
    """A snapshot's vintage and its KC7 levels, scaled, in ALL_BLOCS order;
    a bloc the file lacks is None in both tuples."""

    vintage: WeoVintage
    debt_ratios: tuple[Optional[int], ...]
    nominal_gdps: tuple[Optional[int], ...]

    def missing(self) -> list[Bloc]:
        return [b for b, debt in zip(ALL_BLOCS, self.debt_ratios) if debt is None]


class SnapshotRule(Enum):
    OCTOBER_PLUS_10 = "OctoberPlus10"
    DECEMBER_FALLBACK = "DecemberFallback"


@dataclass(frozen=True)
class SnapshotDecision:
    chosen_vintage_id: str
    snapshot_timestamp: datetime
    rule_branch: SnapshotRule
    fallback_note: Optional[str] = None


def parse_weo_snapshot(
    raw: bytes, vintage_id: str, publication_date: date
) -> ParsedSnapshot:
    """Parse a frozen snapshot extract into its vintage and the two KC7
    series, each range-checked.

    A bloc missing from the file is None in both tuples, for the caller to
    fill via apply_missing_data_rule.
    """
    dataset_hash = sha256_hex(raw)
    vintage = WeoVintage(vintage_id, publication_date, dataset_hash)

    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile("snapshot is not valid UTF-8") from exc

    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a bare CR in a cell, or an oversized cell
        raise MalformedFile(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        raise MalformedFile("empty snapshot file")
    if [h.strip() for h in rows[0]] != ["bloc", "series", "value", "vintage"]:
        raise MalformedFile(f"unexpected header: {rows[0]}")

    seen: dict[tuple[Bloc, str], int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line
            raise MalformedFile(f"line {lineno}: expected 4 columns, got {len(row)}")
        bloc_code, series = row[0].strip(), row[1].strip()
        bloc = _BLOC_BY_CODE.get(bloc_code)
        if bloc is None:
            raise MalformedFile(f"line {lineno}: unknown bloc {bloc_code!r}")
        if series not in _CANONICAL_SERIES:
            continue  # extract may carry extra series; only the canonical two count
        value, row_vintage = row[2].strip(), row[3].strip()
        if row_vintage != vintage_id:
            raise MalformedFile(
                f"line {lineno}: vintage {row_vintage!r} != {vintage_id!r}"
            )
        if (bloc, series) in seen:
            raise DuplicateBloc(f"duplicate {series} row for {bloc.value}")
        try:
            seen[(bloc, series)] = fp.from_str(value)
        except ValueError as exc:
            raise MalformedFile(f"line {lineno}: bad value {value!r}") from exc

    debt_ratios, nominal_gdps = [], []
    for bloc in ALL_BLOCS:
        debt = seen.get((bloc, DEBT_SERIES))
        gdp = seen.get((bloc, GDP_SERIES))
        if (debt is None) != (gdp is None):
            raise MalformedFile(
                f"{bloc.value}: incomplete series pair (need both "
                f"{DEBT_SERIES} and {GDP_SERIES})"
            )
        if debt is not None:
            check_ranges(bloc, debt, gdp)
        debt_ratios.append(debt)
        nominal_gdps.append(gdp)
    return ParsedSnapshot(vintage, tuple(debt_ratios), tuple(nominal_gdps))


def apply_missing_data_rule(
    parsed: ParsedSnapshot,
    last_confirmed: Mapping[Bloc, tuple[int, int]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The snapshot's debt ratios and GDPs, in ALL_BLOCS order, with each
    missing bloc's levels taken from its last confirmed
    `(debt_ratio, nominal_gdp)`; raises NoPriorValue for a missing bloc
    without one."""
    levels = []
    for bloc, debt, gdp in zip(ALL_BLOCS, parsed.debt_ratios, parsed.nominal_gdps):
        if debt is None:
            if bloc not in last_confirmed:
                raise NoPriorValue(
                    f"{bloc.value} missing and no confirmed prior value")
            debt, gdp = last_confirmed[bloc]
        levels.append((debt, gdp))
    return tuple(zip(*levels))


def _is_business_day(day: date, holidays: frozenset[date]) -> bool:
    return day.weekday() < 5 and day not in holidays


def next_business_day(day: date, holidays: frozenset[date] = frozenset()) -> date:
    while not _is_business_day(day, holidays):
        day += timedelta(days=1)
    return day


def resolve_snapshot_date(
    october_publication: Optional[date],
    today: date,
    latest_vintage_id: str,
    holidays: frozenset[date] = frozenset(),
) -> SnapshotDecision:
    """Apply the deterministic annual snapshot rule.

    October release published by December 1 -> snapshot at 12:00 UTC ten
    calendar days after publication. Otherwise fall back to the latest
    vintage available as of December 1, snapshot December 10 at 12:00 UTC
    shifted to the next business day when needed.
    """
    noon = time(12, 0, tzinfo=timezone.utc)
    december_first = date(today.year, 12, 1)
    if october_publication is not None and october_publication <= december_first:
        ts = datetime.combine(october_publication + timedelta(days=10), noon)
        return SnapshotDecision(latest_vintage_id, ts, SnapshotRule.OCTOBER_PLUS_10)
    snap_day = next_business_day(date(today.year, 12, 10), holidays)
    note = "October dataset not published by December 1; using latest available vintage"
    return SnapshotDecision(
        latest_vintage_id,
        datetime.combine(snap_day, noon),
        SnapshotRule.DECEMBER_FALLBACK,
        fallback_note=note,
    )
