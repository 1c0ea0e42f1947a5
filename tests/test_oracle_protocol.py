import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from kladia import debt_index
from kladia import fixedpoint as fp
from kladia import ledger as lg
from kladia import oracle_protocol as op
from kladia.canonical import content_hash
from kladia.clock import VirtualClock
from kladia.errors import (
    DuplicateSubmission,
    IncompleteBlocSet,
    InconsistentPayload,
    InsufficientApprovals,
    MalformedFile,
    NegativeValue,
    NoSubmissions,
    NotExecutable,
    SubmissionsClosed,
    UnknownOperator,
    WindowClosed,
)
from kladia.policy import PolicyParams
from kladia.weo_ingest import ALL_BLOCS

from conftest import make_columns

OPERATORS = ("op-1", "op-2", "op-3", "op-4", "op-5")
EXECUTORS = tuple(f"exec-{i}" for i in range(1, 9))
T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)


def payload_for(vintage, baseline, debt_scale="1.0"):
    debt_ratios, nominal_gdps = make_columns()
    if debt_scale != "1.0":
        debt_ratios = tuple(fp.scale_amount_down(d, fp.from_str(debt_scale))
                            for d in debt_ratios)
    return op.build_payload(debt_ratios, nominal_gdps, baseline, vintage)


def submission(operator, vintage, baseline, debt_scale="1.0", ts=T0):
    return op.OracleSubmission.sign(
        operator, payload_for(vintage, baseline, debt_scale), ts
    )


def fresh_record(prior_g=0):
    return op.CycleRecord(cycle_year=2026, prior_confirmed_g=prior_g)


# --- submissions -------------------------------------------------------------

def test_submit_accepts_consistent_payload(vintage, baseline):
    record = fresh_record()
    record = op.submit(record, submission("op-1", vintage, baseline), baseline)
    assert len(record.submissions) == 1


def test_submit_rejects_unknown_operator(vintage, baseline):
    # the published roster is op-1 … op-8: its last member submits, the next not
    record = op.submit(fresh_record(), submission("op-8", vintage, baseline), baseline)
    for outsider in ("ghost", "op-9"):
        with pytest.raises(UnknownOperator, match=f"^{outsider}$"):
            op.submit(record, submission(outsider, vintage, baseline), baseline)
    assert [s.operator_id for s in record.submissions] == ["op-8"]


def test_submit_rejects_inconsistent_g(vintage, baseline):
    good = payload_for(vintage, baseline, "1.4")
    tampered = replace(good, g=good.g + 1)
    sub = op.OracleSubmission.sign("op-1", tampered, T0)
    with pytest.raises(InconsistentPayload):
        op.submit(fresh_record(), sub, baseline)


def test_submit_recheck_is_not_hidden_by_the_memo(vintage, baseline):
    # the same inputs as an accepted payload hit the weights -> BDI memo;
    # every claimed value is still compared with what the kernel gives
    good = payload_for(vintage, baseline, "1.3")
    record = op.submit(fresh_record(), op.OracleSubmission.sign("op-1", good, T0),
                       baseline)
    hits = debt_index._weighted_bdi.cache_info().hits
    for operator, tampered in (("op-2", replace(good, g=good.g + 1)),
                               ("op-3", replace(good, bdi=good.bdi - 1)),
                               ("op-4", replace(good, x_norm=good.x_norm + 1))):
        with pytest.raises(InconsistentPayload):
            op.submit(record, op.OracleSubmission.sign(operator, tampered, T0),
                      baseline)
    assert debt_index._weighted_bdi.cache_info().hits == hits + 3
    assert [s.operator_id for s in record.submissions] == ["op-1"]


def test_submit_rechecks_the_vintage_id(vintage, baseline):
    bad_vintage = replace(payload_for(vintage, baseline), vintage_id="2026-Smarch")
    with pytest.raises(MalformedFile):
        op.submit(fresh_record(), op.OracleSubmission.sign("op-1", bad_vintage, T0),
                  baseline)


@pytest.mark.parametrize("key, code, value, message", [
    ("debt_ratios", "JP", "-0.000000001", "JP: debt_ratio < 0"),
    ("nominal_gdps", "KR", "0", "KR: nominal_gdp <= 0"),
    ("nominal_gdps", "US", "-1", "US: nominal_gdp <= 0"),
], ids=["negative-debt", "zero-gdp", "negative-gdp"])
def test_read_payload_range_checks_every_bloc(vintage, baseline, key, code,
                                              value, message):
    # the one range check of a payload from outside: the kernel checks nothing
    view = payload_for(vintage, baseline).canonical()
    assert op.read_payload(view, "op-1.json") == payload_for(vintage, baseline)
    view[key][code] = value
    with pytest.raises(NegativeValue, match=f"^{message}$"):
        op.read_payload(view, "op-1.json")


@pytest.mark.parametrize("edit", [
    lambda values: values.pop("KR"),
    lambda values: values.update(XX="1"),
], ids=["six-blocs", "eight-blocs"])
@pytest.mark.parametrize("key", ["debt_ratios", "nominal_gdps"])
def test_read_payload_refuses_a_bloc_set_that_is_not_kc7(vintage, baseline,
                                                          key, edit):
    view = payload_for(vintage, baseline).canonical()
    edit(view[key])
    with pytest.raises(IncompleteBlocSet,
                       match=f"^op-1.json: {key}: need exactly the KC7 set, got "):
        op.read_payload(view, "op-1.json")


def test_canonical_view_is_not_shared(vintage, baseline):
    payload = payload_for(vintage, baseline)
    sub = op.OracleSubmission.sign("op-1", payload, T0)
    record = op.submit(fresh_record(), sub, baseline)
    op.aggregate_median(record)
    before = payload.canonical()
    record_before = record.canonical()

    view = payload.canonical()
    view["g"] = "0.999999999"
    view["debt_ratios"]["US"] = "0.000000000"
    view["nominal_gdps"].clear()
    view["injected"] = "x"
    record_view = record.canonical()
    record_view["submissions"][0]["payload"]["debt_ratios"]["JP"] = "1.0"
    record_view["median"]["nominal_gdps"]["KR"] = "1.0"

    assert payload.canonical() == before
    assert op.OracleSubmission.sign("op-1", payload, T0).signature == sub.signature
    assert record.canonical() == record_before


# sign does not re-check, so any payload will do; this one has text that
# JSON escapes in its dataset hash too
_SIGNED_PAYLOAD = op.SubmissionPayload(
    debt_ratios=tuple((i + 1) * fp.ONE for i in range(len(ALL_BLOCS))),
    nominal_gdps=tuple((i + 7) * fp.SCALE // 3 for i in range(len(ALL_BLOCS))),
    bdi=fp.from_str("150.5"), x_norm=fp.from_str("1.25"), g=1,
    vintage_id="2025-October", dataset_hash='\u00e9"\\\x01',
)

# operator ids that JSON must escape or that are not ASCII
OPERATOR_IDS = st.one_of(
    st.text(),
    st.lists(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "/",
                              "\u00e9", "\u2028", "\U0001f600", "op-1"])
             ).map("".join),
)


@settings(max_examples=300)
@given(OPERATOR_IDS)
def test_sign_is_the_canonical_form(operator_id):
    signed = op.OracleSubmission.sign(operator_id, _SIGNED_PAYLOAD, T0)
    assert signed.signature == content_hash(
        {"operator": operator_id, "payload": _SIGNED_PAYLOAD.canonical()})


@pytest.mark.parametrize("operator_id", ["\ud800", "op-\udfff"])
def test_sign_fails_like_the_canonical_form_on_a_lone_surrogate(operator_id):
    with pytest.raises(Exception) as canonical:
        content_hash({"operator": operator_id,
                      "payload": _SIGNED_PAYLOAD.canonical()})
    with pytest.raises(canonical.type):
        op.OracleSubmission.sign(operator_id, _SIGNED_PAYLOAD, T0)
    assert canonical.type is UnicodeEncodeError


def test_submit_rejects_duplicates(vintage, baseline):
    record = fresh_record()
    record = op.submit(record, submission("op-1", vintage, baseline), baseline)
    with pytest.raises(DuplicateSubmission):
        op.submit(record, submission("op-1", vintage, baseline), baseline)


def test_submissions_close_at_window_open(vintage, baseline):
    record = fresh_record()
    record = op.submit(record, submission("op-1", vintage, baseline), baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    with pytest.raises(SubmissionsClosed):
        op.submit(record, submission("op-2", vintage, baseline), baseline)


def test_window_opens_once_and_only_on_a_median(vintage, baseline):
    record = submit_scales(fresh_record(), ["1.5"], vintage, baseline)
    with pytest.raises(NoSubmissions, match="^aggregate before opening the window$"):
        op.open_window(record, T0)
    op.aggregate_median(record)
    op.open_window(record, T0)
    with pytest.raises(WindowClosed, match="^window already opened$"):
        op.open_window(record, T0 + timedelta(hours=1))
    assert record.opened_at == T0


# --- median ------------------------------------------------------------------

def submit_scales(record, scales, vintage, baseline):
    for operator, scale in zip(OPERATORS, scales):
        record = op.submit(record, submission(operator, vintage, baseline, scale),
                           baseline)
    return record


def test_median_odd_count(vintage, baseline):
    record = submit_scales(fresh_record(), ["1.6", "1.61", "1.59"],
                           vintage, baseline)
    median = op.aggregate_median(record)
    # sort oracle: middle of the three submitted BDIs
    expected = sorted(s.payload.bdi for s in record.submissions)[1]
    assert median.bdi == expected


def test_median_even_count_takes_lower(vintage, baseline):
    record = submit_scales(fresh_record(), ["1.59", "1.61"], vintage, baseline)
    median = op.aggregate_median(record)
    assert median.bdi == min(s.payload.bdi for s in record.submissions)


def test_median_single_submission(vintage, baseline):
    record = submit_scales(fresh_record(), ["1.3"], vintage, baseline)
    median = op.aggregate_median(record)
    assert median.bdi == record.submissions[0].payload.bdi


def test_median_no_submissions(baseline):
    with pytest.raises(NoSubmissions):
        op.aggregate_median(fresh_record())


def test_median_permutation_invariance(vintage, baseline):
    scales = ["1.2", "1.5", "1.31", "1.44", "1.07"]
    base_record = submit_scales(fresh_record(), scales, vintage, baseline)
    reference = op.aggregate_median(base_record)
    rng = random.Random(3)
    for _ in range(50):
        record = fresh_record()
        order = list(zip(OPERATORS, scales))
        rng.shuffle(order)
        for operator, scale in order:
            record = op.submit(record, submission(operator, vintage, baseline, scale),
                               baseline)
        assert op.aggregate_median(record).bdi == reference.bdi


def test_median_is_the_submitted_payload(vintage, baseline):
    record = submit_scales(fresh_record(), ["1.5"], vintage, baseline)
    median = op.aggregate_median(record)
    x_excess = max(0, fp.div(median.bdi, baseline.bdi_ref) - fp.ONE)
    from kladia.debt_index import policy_factor

    assert median.g == policy_factor(x_excess, baseline.lam)
    # a submitted payload is the median as it stands, already rendered
    assert median is record.submissions[0].payload


# --- flags and disputes ------------------------------------------------------

def open_record(vintage, baseline, scales=("1.5", "1.52", "1.48")):
    record = submit_scales(fresh_record(), list(scales), vintage, baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    return record


def test_single_flag_is_comment_only(vintage, baseline):
    record = open_record(vintage, baseline)
    record = op.flag(record, "op-1", "stale-data", "looks old")
    assert record.status is op.WindowStatus.OPEN
    assert len(record.flags) == 1


def test_two_matching_flags_dispute(vintage, baseline):
    record = open_record(vintage, baseline)
    op.flag(record, "op-1", "stale-data", "looks old")
    record = op.flag(record, "op-2", "stale-data", "same here")
    assert record.status is op.WindowStatus.DISPUTED


def test_two_different_issue_codes_stay_open(vintage, baseline):
    record = open_record(vintage, baseline)
    op.flag(record, "op-1", "stale-data", "a")
    record = op.flag(record, "op-2", "bad-gdp", "b")
    assert record.status is op.WindowStatus.OPEN


def test_same_operator_twice_does_not_dispute(vintage, baseline):
    record = open_record(vintage, baseline)
    op.flag(record, "op-1", "stale-data", "a")
    record = op.flag(record, "op-1", "stale-data", "again")
    assert record.status is op.WindowStatus.OPEN


def test_flag_from_off_the_roster_rejected(vintage, baseline):
    # two strangers cannot dispute a window, and a refused flag is not kept
    record = open_record(vintage, baseline)
    for outsider in ("mallory", "eve"):
        with pytest.raises(UnknownOperator, match=f"^{outsider}$"):
            op.flag(record, outsider, "stale-data", "forged")
    assert record.status is op.WindowStatus.OPEN and record.flags == []


def test_flag_after_close_rejected(vintage, baseline):
    record = open_record(vintage, baseline)
    record = op.resolve(record, T0 + timedelta(hours=73))
    with pytest.raises(WindowClosed):
        op.flag(record, "op-1", "late", "too late")


# --- resolution --------------------------------------------------------------

def test_clean_expiry_just_after_72h(vintage, baseline):
    record = open_record(vintage, baseline)
    record = op.resolve(record, T0 + timedelta(hours=72, seconds=1))
    assert record.status is op.WindowStatus.EXPIRED_CLEAN


def test_clean_expiry_at_exactly_72h(vintage, baseline):
    record = open_record(vintage, baseline)
    record = op.resolve(record, T0 + op.CHALLENGE_WINDOW)
    assert record.status is op.WindowStatus.EXPIRED_CLEAN


def test_no_expiry_before_72h(vintage, baseline):
    record = open_record(vintage, baseline)
    record = op.resolve(record, T0 + timedelta(hours=71))
    assert record.status is op.WindowStatus.OPEN


def test_dispute_lapses_only_after_14_days(vintage, baseline):
    # clean expiry is at >= 72 h; the lapse is strictly after 14 days
    prior = fp.from_str("0.25")
    record = submit_scales(op.CycleRecord(2026, prior), ["1.5", "1.52"],
                           vintage, baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    op.flag(record, "op-1", "x", "a")
    op.flag(record, "op-2", "x", "b")
    record = op.resolve(record, T0 + timedelta(days=14))
    assert record.status is op.WindowStatus.DISPUTED
    assert record.confirmed_g is None and not record.carried_forward
    record = op.resolve(record, T0 + timedelta(days=14, seconds=1))
    assert record.status is op.WindowStatus.LAPSED
    assert record.carried_forward
    assert record.confirmed_g == prior


def test_dispute_without_correction_lapses(vintage, baseline):
    prior = fp.from_str("0.25")
    record = submit_scales(op.CycleRecord(2026, prior), ["1.5", "1.52"],
                           vintage, baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    op.flag(record, "op-1", "x", "a")
    op.flag(record, "op-2", "x", "b")
    record = op.resolve(record, T0 + timedelta(days=15))
    assert record.status is op.WindowStatus.LAPSED
    assert record.carried_forward
    assert record.confirmed_g == prior


# --- execution ---------------------------------------------------------------

def expired_record(vintage, baseline):
    record = open_record(vintage, baseline)
    return op.resolve(record, T0 + timedelta(hours=73))


def test_execute_happy_path(vintage, baseline):
    record = expired_record(vintage, baseline)
    state = lg.genesis()
    record, state = op.execute(
        record, state, PolicyParams(), EXECUTORS[:5],
    )
    assert record.status is op.WindowStatus.EXECUTED
    assert record.confirmed_g == record.median_payload.g
    assert state.annual_factors is not None
    assert state.annual_factors.g_used == record.confirmed_g


def test_execute_wrong_status(vintage, baseline):
    record = open_record(vintage, baseline)
    op.flag(record, "op-1", "x", "a")
    op.flag(record, "op-2", "x", "b")
    with pytest.raises(NotExecutable):
        op.execute(record, lg.genesis(), PolicyParams(), EXECUTORS[:5])


def test_execute_insufficient_approvals(vintage, baseline):
    record = expired_record(vintage, baseline)
    with pytest.raises(InsufficientApprovals):
        op.execute(record, lg.genesis(), PolicyParams(), EXECUTORS[:4])
    assert record.confirmed_g is None


# --- one annual cycle --------------------------------------------------------

PRIOR_G = fp.from_str("0.2")
DISPUTE = (op.Flag("op-1", "data-mismatch", "values off vs source"),
           op.Flag("op-2", "data-mismatch", "confirmed mismatch"))


def settle(vintage, baseline, state, flags, clock, year=2026):
    subs = [submission(o, vintage, baseline, scale)
            for o, scale in zip(OPERATORS, ("1.5", "1.52", "1.48"))]
    return op.settle_cycle(year, subs, state, PolicyParams(),
                           baseline, clock, EXECUTORS[:5], flags)


def test_settle_cycle_executes_a_clean_window(vintage, baseline):
    clock = VirtualClock(T0)
    record, state = settle(vintage, baseline, lg.genesis(), DISPUTE[:1], clock)
    assert clock.now() == T0 + timedelta(hours=73)
    assert record.status is op.WindowStatus.EXECUTED
    assert record.confirmed_g == record.median_payload.g
    assert record.prior_confirmed_g == 0 != record.confirmed_g
    assert state.annual_factors.g_used == record.confirmed_g
    assert state.event_log[-1]["inputs"]["year"] == 2026
    # with factors in force, the prior confirmed g is the ledger's g
    state = lg.begin_cycle(state, PolicyParams(), PRIOR_G, 2027)
    record, state = settle(vintage, baseline, state, (), clock, 2028)
    assert record.status is op.WindowStatus.EXECUTED
    assert record.prior_confirmed_g == PRIOR_G != record.confirmed_g
    assert state.event_log[-1]["inputs"]["year"] == 2028


@pytest.mark.parametrize("factors_in_force", [False, True])
def test_settle_cycle_dispute_lapses_to_prior_g(vintage, baseline, factors_in_force):
    # the prior confirmed g is the ledger's: the g its factors in force were
    # derived at, or 0 before the first cycle
    state, prior_g = lg.genesis(), 0
    if factors_in_force:
        state, prior_g = lg.begin_cycle(state, PolicyParams(), PRIOR_G, 2025), PRIOR_G
    clock = VirtualClock(T0)
    record, new = settle(vintage, baseline, state, DISPUTE, clock)
    assert clock.now() == T0 + timedelta(days=15)
    assert record.status is op.WindowStatus.LAPSED
    assert record.prior_confirmed_g == record.confirmed_g == prior_g
    assert record.carried_forward
    events = new.event_log[state.n_events:]
    assert events[0]["inputs"]["year"] == 2026
    if factors_in_force:
        assert [e["op"] for e in events] == ["carry_cycle"]
        assert new.annual_factors is state.annual_factors
    else:
        assert [e["op"] for e in events] == ["begin_cycle"]
        assert events[0]["inputs"]["g"] == prior_g
    assert new.annual_factors.g_used == prior_g


def test_api_surface_cannot_write_g():
    # no public operation of the protocol accepts an externally chosen g
    import inspect

    for name in dir(op):
        fn = getattr(op, name)
        if not inspect.isfunction(fn) or fn.__module__ != op.__name__:
            continue
        if name.startswith("_"):
            continue
        assert "g" not in inspect.signature(fn).parameters, name


# --- time gate over randomized schedules -------------------------------------

def test_time_gate_randomized_schedules(vintage, baseline):
    rng = random.Random(12345)
    for _ in range(300):
        clock = VirtualClock(T0)
        record = open_record(vintage, baseline)
        executed_early = False
        for _ in range(rng.randint(1, 8)):
            clock.advance_hours(rng.randint(1, 30))
            record = op.resolve(record, clock.now())
            if record.status is op.WindowStatus.EXPIRED_CLEAN:
                elapsed = clock.now() - T0
                if elapsed < timedelta(hours=72):
                    executed_early = True
                break
        assert not executed_early
