"""Acceptance gate: one test per release criterion.

Each test asserts a numbered acceptance criterion at its stated tolerance
and prints a single PASS line (visible with pytest -s). All expected
values come from independent oracles: exact rational arithmetic
(fractions.Fraction), calendar arithmetic, sort-based medians, and
telescoping sums — never from the code under test.
"""

import random
import time as time_mod
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction

import pytest

from kladia import fixedpoint as fp
from kladia import governance as gov
from kladia import ledger as lg
from kladia import oracle_protocol as op
from kladia import reporting
from kladia import simulator as sim
from kladia.debt_index import policy_factor
from kladia.errors import KladiaError, NotExecutable, ZeroCap
from kladia.policy import (
    PolicyParams,
    burn_fraction,
    escrow_cap,
    issuance_budget,
    staking_rate,
)
from kladia.weo_ingest import SnapshotRule, WeoVintage, resolve_snapshot_date

from conftest import make_columns

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
LAM = fp.ONE
UNIT = 10 ** 6
EXECUTORS = tuple(f"exec-{i}" for i in range(1, 9))
ESCROW_SIGNERS = tuple(f"escrow-{i}" for i in range(1, 6))


def _report(number, text):
    print(f"criterion {number:02d}: PASS — {text}")


# --- 1. allocation exactness -------------------------------------------------

def test_criterion_01_allocation_exactness():
    state = lg.genesis()
    expected_kld = {
        lg.BucketKind.ECOSYSTEM_ESCROW: 5_500_000_000,
        lg.BucketKind.TEAM_VESTING: 2_500_000_000,
        lg.BucketKind.COMPANY_RESERVE: 1_000_000_000,
        lg.BucketKind.COMMUNITY_AIRDROP: 500_000_000,
        lg.BucketKind.STAKING_RESERVE: 300_000_000,
        lg.BucketKind.LIQUIDITY_PARTNERSHIPS: 150_000_000,
        lg.BucketKind.LEGAL_TREASURY: 50_000_000,
    }
    for bucket, kld in expected_kld.items():
        assert state.buckets[bucket] == kld * UNIT
    assert sum(state.buckets.values()) == 10_000_000_000 * UNIT == lg.S_MAX
    assert state.circulating == 0
    assert state.burned_cumulative == 0
    _report(1, "genesis buckets exact in base units, sum = 10^10 KLD")


# --- 2. vesting reproduction -------------------------------------------------

def test_criterion_02_vesting_reproduction():
    state = lg.genesis()
    params = PolicyParams()
    vested = []
    for year in range(2026, 2030):
        state = lg.begin_cycle(state, params, 0, year)
        for _ in range(12):
            state, summary = lg.advance_month(state, 0)
            vested.append(summary["vested"])

    assert vested[:12] == [0] * 12  # 12-month cliff: zero transfers
    releases = vested[12:48]
    assert len(releases) == 36

    total_base = 2_500_000_000 * UNIT
    exact_monthly = total_base // 36  # 69,444,444.444444 KLD
    printed_reference = 69_444_444_440_000  # 69,444,444.44 KLD in base units
    for release in releases[:35]:
        assert release == exact_monthly == 69_444_444_444_444
        assert abs(release - printed_reference) <= 5_000  # 0.005 KLD
    assert releases[35] == total_base - 35 * exact_monthly
    assert sum(releases) == total_base  # telescoping: remainder sweeps in
    assert state.buckets[lg.BucketKind.TEAM_VESTING] == 0
    _report(2, "monthly vest 69,444,444.444444 KLD, 36-release total exact")


# --- 3. policy-factor values -------------------------------------------------

def test_criterion_03_policy_factor_values():
    started = time_mod.perf_counter()

    assert policy_factor(0, LAM) == 0  # g(0) = 0 exactly

    third = policy_factor(fp.from_str("0.5"), LAM)
    assert abs(Fraction(third, fp.SCALE) - Fraction(1, 3)) <= Fraction(1, 10**9)

    # x = 10^6: the exact value 10^6/(10^6+1) lies strictly inside
    # (0.999999, 1); the engine returns its correct 9-digit rounding and
    # stays below 1 by construction
    exact = Fraction(10**6, 10**6 + 1)
    assert Fraction(999_999, 1_000_000) < exact < 1
    saturated = policy_factor(10**6 * fp.SCALE, LAM)
    assert abs(Fraction(saturated, fp.SCALE) - exact) <= Fraction(1, 2 * 10**9)
    assert saturated < fp.ONE

    rnd = random.Random(3)
    for _ in range(1_000):
        a = rnd.randrange(0, 10**13)
        b = rnd.randrange(0, 10**13)
        x1, x2 = min(a, b), max(a, b)
        lam = rnd.randrange(1, 5 * fp.SCALE)
        assert policy_factor(x1, lam) <= policy_factor(x2, lam)

    elapsed = time_mod.perf_counter() - started
    assert elapsed < 1.0
    _report(3, f"g(0)=0, g(0.5)=1/3±1e-9, saturation bound, "
               f"1000 monotone pairs in {elapsed:.3f}s")


# --- 4. anti-cyclicality -----------------------------------------------------

def _random_params(rnd):
    """(params, e_base, i_base): random coefficients and cycle anchors."""
    b_max = rnd.randrange(0, fp.ONE + 1)
    e_min = rnd.randrange(0, 10**9)
    coefficients = dict(
        alpha_i=rnd.randrange(0, fp.ONE + 1),
        beta_b=rnd.randrange(0, 3 * fp.SCALE + 1),
        alpha_e=rnd.randrange(0, fp.ONE + 1),
        gamma=rnd.randrange(0, 3 * fp.SCALE + 1),
        b_base=rnd.randrange(0, b_max + 1),
        b_max=b_max,
    )
    e_base = e_min + rnd.randrange(0, 10**12)
    i_base = rnd.randrange(0, 10**14)
    params = PolicyParams(**coefficients, e_min=e_min,
                          r_base=rnd.randrange(0, fp.SCALE // 10))
    return params, e_base, i_base


def test_criterion_04_anti_cyclicality():
    rnd = random.Random(4)
    locked = 10**15
    for _ in range(1_000):
        p, e_base, i_base = _random_params(rnd)
        ga = rnd.randrange(0, fp.ONE - 1)
        gb = rnd.randrange(0, fp.ONE - 1)
        g1, g2 = min(ga, gb), max(ga, gb) + 1  # strict g1 < g2
        assert (issuance_budget(p, g1, i_base, locked)
                >= issuance_budget(p, g2, i_base, locked))
        assert burn_fraction(p, g1) <= burn_fraction(p, g2) <= p.b_max
        assert escrow_cap(p, g1, e_base) >= escrow_cap(p, g2, e_base) >= p.e_min
        assert staking_rate(p, g1) >= staking_rate(p, g2) >= 0
    _report(4, "1000 random (params, g1<g2) draws, zero violations")


# --- 5. conservation ---------------------------------------------------------

def test_criterion_05_conservation_600_months():
    started = time_mod.perf_counter()
    rnd = random.Random(20260824)
    state = lg.genesis()
    params = PolicyParams()
    prior_burned = 0
    months = 0
    last_g = 0

    for year in range(50):
        if year % 9 == 4:
            # governance event: retune issuance sensitivity within bounds
            params = replace(
                params, alpha_i=rnd.randrange(0, fp.from_str("0.05") + 1))
        if year % 11 == 7 and year > 0:
            g = last_g  # disputed cycle lapses: carry last confirmed g
        else:
            g = rnd.randrange(0, fp.ONE)
        last_g = g
        state = lg.begin_cycle(state, params, g, 2026 + year)

        for _ in range(12):
            cap = state.annual_factors.escrow_cap
            if cap > 0 and rnd.random() < 0.8:
                try:
                    state, _ = lg.release_escrow(
                        state, rnd.randrange(1, 2 * cap), ESCROW_SIGNERS)
                except (ZeroCap, KladiaError):
                    pass
            fees = rnd.randrange(0, max(1, min(2_000_000 * UNIT,
                                               state.circulating)))
            state, _ = lg.advance_month(state, fees)
            months += 1

            total = (state.circulating + state.locked_total()
                     + state.burned_cumulative)
            assert total == lg.S_MAX  # exact, every step
            assert state.burned_cumulative >= prior_burned
            prior_burned = state.burned_cumulative

    elapsed = time_mod.perf_counter() - started
    assert months == 600
    assert prior_burned > 0
    assert elapsed < 30.0
    _report(5, f"600 randomized months conserved exactly, burns monotone, "
               f"{elapsed:.2f}s")


# --- 6. challenge-window gating ----------------------------------------------

def test_criterion_06_challenge_window_gating(vintage, baseline):
    payload = op.build_payload(*make_columns(), baseline, vintage)
    operators = ("op-1", "op-2", "op-3")
    shared_ledger = lg.genesis()
    rnd = random.Random(6)
    early_attempts = lapses = clean = 0

    for _ in range(10_000):
        prior = rnd.randrange(0, fp.ONE)
        record = op.CycleRecord(cycle_year=2026, prior_confirmed_g=prior)
        for operator in operators:
            record = op.submit(
                record, op.OracleSubmission.sign(operator, payload, T0),
                baseline,
            )
        op.aggregate_median(record)
        op.open_window(record, T0)

        # any execution attempt strictly before the 72-hour mark must fail
        pre = T0 + timedelta(minutes=rnd.randrange(0, 72 * 60))
        record = op.resolve(record, pre)
        assert record.status is op.WindowStatus.OPEN
        with pytest.raises(NotExecutable):
            op.execute(record, shared_ledger, PolicyParams(), EXECUTORS[:5])
        early_attempts += 1

        if rnd.random() < 0.5:
            # valid dispute (two operators, one issue code), never corrected
            op.flag(record, "op-1", "data-mismatch", "a")
            op.flag(record, "op-2", "data-mismatch", "b")
            late = T0 + timedelta(days=15, hours=rnd.randrange(0, 200))
            record = op.resolve(record, late)
            assert record.status is op.WindowStatus.LAPSED
            assert record.confirmed_g == prior
            assert record.carried_forward is True
            lapses += 1
        else:
            post = T0 + timedelta(hours=72, minutes=rnd.randrange(0, 10_000))
            record = op.resolve(record, post)
            assert record.status is op.WindowStatus.EXPIRED_CLEAN
            clean += 1

    assert early_attempts == 10_000 and lapses > 0 and clean > 0
    _report(6, f"10,000 schedules: 0 executions before 72h, "
               f"{lapses} lapses all carried prior g")


# --- 7. median aggregation ---------------------------------------------------

def _scaled_payload(vintage, baseline, factor):
    debt_ratios, nominal_gdps = make_columns()
    scaled = tuple(fp.mul(d, factor) for d in debt_ratios)
    return op.build_payload(scaled, nominal_gdps, baseline, vintage)


def test_criterion_07_median_aggregation(vintage, baseline):
    factors = ["1.00", "1.05", "1.10", "1.15", "1.20"]
    payloads = [_scaled_payload(vintage, baseline, fp.from_str(f))
                for f in factors]
    rnd = random.Random(7)

    for count in (4, 5):  # even count exercises the lower-median rule
        pool = payloads[:count]
        expected_bdi = sorted(p.bdi for p in pool)[(count - 1) // 2]
        for _ in range(250):
            order = rnd.sample(pool, count)
            record = op.CycleRecord(cycle_year=2026, prior_confirmed_g=0)
            operators = tuple(f"op-{i}" for i in range(1, count + 1))
            for operator, payload in zip(operators, order):
                record = op.submit(
                    record, op.OracleSubmission.sign(operator, payload, T0),
                    baseline,
                )
            median = op.aggregate_median(record)
            assert median.bdi == expected_bdi  # order never matters
    _report(7, "500 shuffles permutation-invariant; even-count lower median "
               "matches sort oracle")


# --- 8. report integrity -----------------------------------------------------

def _executed_cycle(vintage, baseline):
    record = op.CycleRecord(cycle_year=2026, prior_confirmed_g=0)
    operators = ("op-1", "op-2", "op-3")
    payload = op.build_payload(*make_columns(), baseline, vintage)
    for operator in operators:
        record = op.submit(
            record, op.OracleSubmission.sign(operator, payload, T0),
            baseline,
        )
    op.aggregate_median(record)
    op.open_window(record, T0)
    record = op.resolve(record, T0 + timedelta(hours=73))
    state = lg.genesis()
    event_start = len(state.event_log)
    record, state = op.execute(record, state, PolicyParams(), EXECUTORS[:5])
    state, _ = lg.release_escrow(state, 10**9, ESCROW_SIGNERS)
    state, _ = lg.advance_month(state, 10**8)
    return record, state.event_log[event_start:]


def test_criterion_08_report_integrity(monkeypatch, vintage, baseline):
    # every simulated cycle must round-trip build -> commit -> verify; each
    # year's report is verified against the log up to the anchor it was
    # built at, the lapsed year included
    built = []
    build_report = sim.reporting.build_report

    def capture(record, event_log, anchor, governance_log, run_baseline):
        report = build_report(record, event_log, anchor, governance_log,
                              run_baseline)
        built.append((report, event_log[:anchor], anchor, run_baseline))
        return report

    monkeypatch.setattr(sim.reporting, "build_report", capture)
    trace = sim.run(sim.Scenario(seed=8, years=3, dispute_years=(2,)))
    assert len(trace.report_commitments) == len(built) == 3
    for report, events, anchor, run_baseline in built:
        report_bytes = reporting.serialize(report)
        assert reporting.verify(report_bytes, reporting.commit(report_bytes, anchor),
                                run_baseline, events) == (True, [])
    monkeypatch.undo()

    record, events = _executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    commitment = reporting.commit(reporting.serialize(report), len(events))
    ok, problems = reporting.verify(
        reporting.serialize(report), commitment, baseline, events)
    assert ok, problems

    import json
    rnd = random.Random(8)
    serialized = reporting.serialize(report)
    keys = list(report.keys())
    for _ in range(100):
        tampered = json.loads(serialized)
        key = rnd.choice(keys)
        value = tampered[key]
        if isinstance(value, bool):
            tampered[key] = not value
        elif isinstance(value, int):
            tampered[key] = value + 1
        elif isinstance(value, str):
            tampered[key] = value + "x"
        elif isinstance(value, list):
            tampered[key] = value + ["x"]
        elif isinstance(value, dict):
            tampered[key] = {**value, "injected": "x"}
        else:
            tampered[key] = "tampered"
        ok, _ = reporting.verify(
            reporting.serialize(tampered), commitment, baseline, events)
        assert not ok, f"tampering {key} went undetected"

    # omitting any executed event leaves a supply reconciliation gap
    stripped = dict(report)
    stripped["executed_actions"] = report["executed_actions"][:-1]
    recommit = reporting.commit(reporting.serialize(stripped), len(events))
    ok, problems = reporting.verify(
        reporting.serialize(stripped), recommit, baseline, events)
    assert not ok and "SupplyReconciliationGap" in problems
    _report(8, "3-cycle round trip clean; 100/100 tamperings and omitted "
               "event detected")


# --- 9. governance boundaries ------------------------------------------------

def test_criterion_09_governance_boundaries():
    reg = gov.GovernanceRegistry()
    supply = 1_000_000 * UNIT
    snap = gov.VotingPowerView({"alice": supply}, 0)
    for name in sorted(gov.IMMUTABLE_PARAMETERS):
        with pytest.raises(KladiaError):
            gov.propose(reg, "alice", supply, {name: 1}, snap, T0)

    # treasury + unvested hold 90% of raw supply but sit outside the
    # eligible view; 6% of the eligible 10% reaches the 5% quorum
    raw_supply = 10_000_000_000 * UNIT
    eligible = raw_supply // 10
    holders = {f"h{i}": eligible // 100 for i in range(100)}
    view = gov.VotingPowerView(holders, 0)
    assert view.eligible_supply == eligible
    proposal = gov.propose(gov.GovernanceRegistry(), "h0", eligible,
                           {"alpha_i": fp.from_str("0.02")}, view, T0)
    for i in range(6):
        gov.vote(proposal, f"h{i}", gov.VoteDirection.YES,
                 T0 + timedelta(days=1))
    yes, no = gov.tally(proposal)
    assert yes + no < fp.scale_amount_down(raw_supply, gov.QUORUM_FRACTION)
    proposal = gov.finalize(proposal, T0 + timedelta(days=7))
    assert proposal.status is gov.ProposalStatus.QUEUED
    _report(9, f"{len(gov.IMMUTABLE_PARAMETERS)} constitutional parameters "
               "rejected; quorum on eligible supply only")


# --- 10. snapshot-date rule --------------------------------------------------

def _calendar_oracle_fallback(year, holidays=frozenset()):
    day = date(year, 12, 10)
    while day.weekday() >= 5 or day in holidays:
        day += timedelta(days=1)
    return datetime.combine(day, time(12, 0, tzinfo=timezone.utc))


def test_criterion_10_snapshot_date_rule():
    decision = resolve_snapshot_date(
        date(2024, 10, 22), date(2024, 12, 1), "2024-October")
    assert decision.rule_branch is SnapshotRule.OCTOBER_PLUS_10
    assert decision.snapshot_timestamp == \
        datetime(2024, 11, 1, 12, 0, tzinfo=timezone.utc)
    assert date(2024, 10, 22) + timedelta(days=10) == date(2024, 11, 1)

    fallback = resolve_snapshot_date(None, date(2024, 12, 1), "2024-April")
    assert fallback.rule_branch is SnapshotRule.DECEMBER_FALLBACK
    assert fallback.snapshot_timestamp == _calendar_oracle_fallback(2024)
    assert fallback.snapshot_timestamp.date() == date(2024, 12, 10)  # Tuesday
    assert fallback.fallback_note is not None

    weekend = resolve_snapshot_date(None, date(2022, 12, 1), "2022-April")
    assert weekend.snapshot_timestamp == _calendar_oracle_fallback(2022)
    assert weekend.snapshot_timestamp.date() == date(2022, 12, 12)  # Sat -> Mon

    holidays = frozenset({date(2024, 12, 10)})
    shifted = resolve_snapshot_date(None, date(2024, 12, 1), "2024-April",
                                    holidays)
    assert shifted.snapshot_timestamp == _calendar_oracle_fallback(2024, holidays)
    assert shifted.snapshot_timestamp.date() == date(2024, 12, 11)

    for year in range(2015, 2046):
        got = resolve_snapshot_date(None, date(year, 12, 1), f"{year}-April")
        assert got.snapshot_timestamp == _calendar_oracle_fallback(year)
    _report(10, "October+10 and December fallback match calendar oracle "
                "over 2015-2045")
