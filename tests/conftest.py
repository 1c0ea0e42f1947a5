import re
from datetime import date
from pathlib import Path

import pytest

from kladia import fixedpoint as fp
from kladia.debt_index import BaselineRef, weighted_bdi
from kladia.weo_ingest import ALL_BLOCS, Bloc, WeoVintage

DEBT_LEVELS = {
    Bloc.US: "120", Bloc.EA20: "90", Bloc.JP: "250", Bloc.UK: "100",
    Bloc.CA: "105", Bloc.AU: "45", Bloc.KR: "55",
}
GDP_LEVELS = {
    Bloc.US: "27000", Bloc.EA20: "15000", Bloc.JP: "4200", Bloc.UK: "3300",
    Bloc.CA: "2100", Bloc.AU: "1700", Bloc.KR: "1800",
}

# the one decimal spelling `fp.from_str` reads, written out independently
PLAIN = re.compile(r"-?[0-9]{1,19}(\.[0-9]{1,9})?")

# `ledger.json` as `kld cycle --year 2026` wrote it (tests/test_cli.py's
# `run_cycle` inputs) when it stored seven derived sections beside the event
# log; its event log is what that run logs today
LEDGER_WITH_DERIVED_SECTIONS = (
    Path(__file__).parent / "fixtures" / "ledger-with-derived-sections.json")


@pytest.fixture
def vintage():
    return WeoVintage("2025-October", date(2025, 10, 15), "ab" * 32)


def make_columns(debt=None, gdp=None):
    """The fixture levels, or `debt` and `gdp` by bloc, as one KC7 input set:
    (debt_ratios, nominal_gdps) in ALL_BLOCS order."""
    debt = debt or DEBT_LEVELS
    gdp = gdp or GDP_LEVELS
    return (tuple(fp.from_str(debt[b]) for b in ALL_BLOCS),
            tuple(fp.from_str(gdp[b]) for b in ALL_BLOCS))


@pytest.fixture
def baseline(vintage):
    bdi_ref = weighted_bdi(*make_columns())[1]
    return BaselineRef(bdi_ref=bdi_ref, genesis_vintage=vintage, lam=fp.ONE)
