import hashlib
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from kladia import fixedpoint as fp
from kladia import ledger as lg
from kladia import oracle_protocol as op
from kladia import reporting
from kladia.errors import IncompleteCycle, MalformedFile, NegativeValue
from kladia.policy import PolicyParams
from kladia.weo_ingest import Bloc

from conftest import GDP_LEVELS, make_columns

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
OPERATORS = ("op-1", "op-2", "op-3")
EXECUTORS = tuple(f"exec-{i}" for i in range(1, 9))
ESCROW_SIGNERS = tuple(f"escrow-{i}" for i in range(1, 9))


def executed_cycle(vintage, baseline, with_actions=True, state=None, year=2026,
                   columns=None):
    record = op.CycleRecord(cycle_year=year, prior_confirmed_g=0)
    for operator in OPERATORS:
        payload = op.build_payload(*(columns or make_columns()), baseline, vintage)
        record = op.submit(
            record, op.OracleSubmission.sign(operator, payload, T0),
            baseline,
        )
    op.aggregate_median(record)
    op.open_window(record, T0)
    record = op.resolve(record, T0 + timedelta(hours=73))
    state = lg.genesis() if state is None else state
    event_start = len(state.event_log)
    record, state = op.execute(
        record, state, PolicyParams(), EXECUTORS[:5],
    )
    if with_actions:
        state, _ = lg.release_escrow(state, 10**9, ESCROW_SIGNERS[:5])
        state, _ = lg.advance_month(state, 10**8)
    return record, state, state.event_log[event_start:]


PRIOR_G = fp.from_str("0.1")


def lapsed_cycle(vintage, baseline):
    """A 2026 cycle lapsed to the prior g 0.1, and a log whose 2025
    begin_cycle put that g in force and whose last event carries it into
    2026."""
    state = lg.begin_cycle(lg.genesis(), PolicyParams(), PRIOR_G, 2025)
    state = lg.carry_cycle(state, 2026)
    record = op.CycleRecord(cycle_year=2026, prior_confirmed_g=PRIOR_G)
    payload = op.build_payload(*make_columns(), baseline, vintage)
    record = op.submit(record, op.OracleSubmission.sign("op-1", payload, T0), baseline)
    record = op.submit(record, op.OracleSubmission.sign("op-2", payload, T0), baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    op.flag(record, "op-1", "x", "a")
    op.flag(record, "op-2", "x", "b")
    return op.resolve(record, T0 + timedelta(days=15)), state.event_log


def test_build_report_executed(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    assert reporting.check_schema(report) == []
    assert report["g"] is not None
    assert report["bdi_ref"] == fp.to_str(baseline.bdi_ref)
    assert len(report["oracle_submissions"]) == 3
    assert any(a["op"] == "release_escrow" for a in report["executed_actions"])


def test_build_report_lapsed(vintage, baseline):
    record, log = lapsed_cycle(vintage, baseline)
    report = reporting.build_report(record, log, len(log), [], baseline)
    assert report["carried_forward"] is True
    assert report["executed_actions"] == []
    assert report["g"] == fp.to_str(PRIOR_G)
    data = reporting.serialize(report)
    assert reporting.verify(data, reporting.commit(data, len(log)), baseline, log) \
        == (True, [])


def test_verify_flags_a_report_missing_a_field(vintage, baseline):
    # serialize checks nothing; a report from outside is checked by verify
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    del report["fallback_note"]
    data = reporting.serialize(report)
    assert reporting.verify(data, reporting.commit(data, len(events)), baseline,
                            events) == (False, ["SchemaIncomplete"])


def test_verify_flags_a_median_with_a_zero_gdp(vintage, baseline):
    # the kernel checks nothing, so a cycle run on a zero GDP settles and its
    # report repeats the kernel exactly; reading its median is what refuses it
    columns = make_columns(gdp={**GDP_LEVELS, Bloc.KR: "0"})
    record, state, events = executed_cycle(vintage, baseline, columns=columns)
    report = reporting.build_report(record, events, len(events), [], baseline)
    assert report["raw_inputs"]["KR"]["nominal_gdp"] == "0.000000000"
    data = reporting.serialize(report)
    assert reporting.verify(data, reporting.commit(data, len(events)), baseline,
                            events) == (False, ["RecomputeMismatch"])
    with pytest.raises(NegativeValue, match=r"^KR: nominal_gdp <= 0$"):
        op.read_payload(report["median"], "median")


def test_build_report_incomplete_cycle(vintage, baseline):
    record = op.CycleRecord(cycle_year=2026, prior_confirmed_g=0)
    payload = op.build_payload(*make_columns(), baseline, vintage)
    record = op.submit(record, op.OracleSubmission.sign("op-1", payload, T0), baseline)
    op.aggregate_median(record)
    op.open_window(record, T0)
    with pytest.raises(IncompleteCycle):
        reporting.build_report(record, [], 1, [], baseline)


def test_build_report_cuts_from_the_cycle_event_before_the_anchor(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    assert events[0]["op"] == "begin_cycle"
    # an anchor of 1 cuts the cycle event alone
    assert reporting.build_report(record, events, 1, [], baseline)[
        "executed_actions"] == []
    with pytest.raises(ValueError, match="^no cycle event before ledger anchor 2$"):
        reporting.build_report(record, events[1:], 2, [], baseline)


def test_action_amounts_by_op():
    # each supply op reads its amounts from its own inputs; a month carries
    # its three flows, leaving out a zero one, and other ops carry none
    inputs = {"released": 22, "vested": 33, "emitted": 44, "burned": 55}
    expected = {
        "release_escrow": [("release_escrow", 22)],
        "advance_month": [("vest_month", 33), ("emit_staking", 44), ("burn", 55)],
        "begin_cycle": [], "vest_month": [], "burn": [],
    }
    for op_name, actions in expected.items():
        event = {"op": op_name, "inputs": inputs}
        assert reporting._actions(event) == actions, op_name
    month = {"op": "advance_month", "inputs": dict(inputs, vested=0, burned=0)}
    assert reporting._actions(month) == [("emit_staking", 44)]
    assert reporting._actions({"op": "release_escrow", "inputs": {"released": 0}}) \
        == [("release_escrow", 0)]


def test_month_actions_share_their_event(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    month = len(events) - 1
    assert events[month]["op"] == "advance_month"
    actions = [(a["op"], a["event_position"]) for a in report["executed_actions"]]
    assert actions == [("release_escrow", month - 1), ("emit_staking", month),
                       ("burn", month)]
    assert report["action_hashes"] == [events[month - 1]["state_hash"]] + \
        [events[month]["state_hash"]] * 2


def test_commit_deterministic(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    c1 = reporting.commit(reporting.serialize(report), len(events))
    c2 = reporting.commit(reporting.serialize(report), len(events))
    assert c1.content_hash == c2.content_hash
    # independent hashing oracle over the same canonical bytes
    expected = hashlib.sha256(reporting.serialize(report)).hexdigest()
    assert c1.content_hash == expected


def test_commit_avalanche(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    commitment = reporting.commit(reporting.serialize(report), len(events))
    data = bytearray(reporting.serialize(report))
    data[10] ^= 0x01
    assert hashlib.sha256(bytes(data)).hexdigest() != commitment.content_hash


def test_verify_round_trip(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    commitment = reporting.commit(reporting.serialize(report), len(events))
    ok, problems = reporting.verify(
        reporting.serialize(report), commitment, baseline, events
    )
    assert ok, problems


def test_verify_detects_edited_g(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    commitment = reporting.commit(reporting.serialize(report), len(events))
    tampered = dict(report)
    tampered["g"] = fp.to_str(fp.from_str("0.123"))
    ok, problems = reporting.verify(
        reporting.serialize(tampered), commitment, baseline, events
    )
    assert not ok
    assert "HashMismatch" in problems or "RecomputeMismatch" in problems


def test_verify_detects_omitted_burn(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    stripped = dict(report)
    stripped["executed_actions"] = [
        a for a in report["executed_actions"] if a["op"] != "burn"
    ]
    assert len(stripped["executed_actions"]) < len(report["executed_actions"])
    commitment = reporting.commit(reporting.serialize(stripped), len(events))
    ok, problems = reporting.verify(
        reporting.serialize(stripped), commitment, baseline, events
    )
    assert not ok
    assert "SupplyReconciliationGap" in problems


def test_verify_flags_a_relabeled_action(vintage, baseline):
    # an escrow release reported as a vesting release, of the same amount
    # and re-committed, is not what the log walks to
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    relabeled = dict(report)
    relabeled["executed_actions"] = [
        {**a, "op": "vest_month"} if a["op"] == "release_escrow" else a
        for a in report["executed_actions"]
    ]
    assert relabeled["executed_actions"] != report["executed_actions"]
    data = reporting.serialize(relabeled)
    ok, problems = reporting.verify(data, reporting.commit(data, len(events)),
                                    baseline, events)
    assert problems == ["SupplyReconciliationGap"]


def test_verify_detects_altered_weight(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    bloc = sorted(report["weights"])[0]
    altered = {**report, "weights": {**report["weights"], bloc: "0.000000001"}}
    data = reporting.serialize(altered)
    ok, problems = reporting.verify(data, reporting.commit(data, len(events)),
                                    baseline, events)
    assert problems == ["RecomputeMismatch"]


def _verify_recommitted(report, baseline, log, **edits):
    """verify() of `report` with `edits`, re-committed so that its hash
    matches."""
    data = reporting.serialize({**report, **edits})
    return reporting.verify(data, reporting.commit(data, len(log)), baseline, log)


def test_verify_recomputes_a_report_stripped_of_its_index_fields(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    assert _verify_recommitted(
        report, baseline, events, bdi=None, x_norm=None, raw_inputs={},
        weights={}) == (False, ["RecomputeMismatch"])


@pytest.mark.parametrize("field, value", [
    ("median.bdi", "1.000000000"),
    ("median.g", "0.999999999"),
    ("median.vintage_id", "2027-October"),
    ("vintage_id", "2027-October"),
    ("dataset_hash", "cd" * 32),
    ("lambda", "1"),
], ids=["median-bdi", "median-g", "median-vintage-id", "vintage-id", "dataset-hash",
        "lambda-spelled-1"])
def test_verify_reads_the_index_fields_from_the_median(vintage, baseline, field,
                                                       value):
    # the index fields repeat the median, which must recompute, and lambda is
    # the baseline's in its canonical spelling
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    key, _, median_key = field.partition(".")
    edit = {**report["median"], median_key: value} if median_key else value
    assert report[key] != edit
    assert _verify_recommitted(report, baseline, events, **{key: edit}) \
        == (False, ["RecomputeMismatch"])


def test_verify_wants_the_median_scalars_spelled_canonically(vintage, baseline):
    # a bdi re-spelled with a leading zero, in the median and the report
    # alike, has the same value but not the spelling a payload renders
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    bdi = "0" + report["bdi"]
    assert _verify_recommitted(report, baseline, events, bdi=bdi,
                               median={**report["median"], "bdi": bdi}) \
        == (False, ["RecomputeMismatch"])


def test_verify_wants_the_median_inputs_spelled_canonically(vintage, baseline):
    # a KC7 input re-spelled with a leading zero, in the median and in the
    # raw_inputs that repeat it, reads as the same value
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    assert report["median"]["debt_ratios"]["US"] == "120.000000000"
    us = "0120.000000000"
    median = {**report["median"],
              "debt_ratios": {**report["median"]["debt_ratios"], "US": us}}
    raw_inputs = {**report["raw_inputs"],
                  "US": {**report["raw_inputs"]["US"], "debt_ratio": us}}
    assert _verify_recommitted(report, baseline, events, median=median,
                               raw_inputs=raw_inputs) \
        == (False, ["RecomputeMismatch"])


@pytest.mark.parametrize("fields, name", [
    ({"content_hash": "0" * 63}, "content_hash"),
    ({"content_hash": "0" * 63 + "A"}, "content_hash"),
    ({"content_hash": None}, "content_hash"),
    ({"ledger_anchor": 0}, "ledger_anchor"),
    ({"ledger_anchor": -1}, "ledger_anchor"),
    ({"ledger_anchor": "2"}, "ledger_anchor"),
    ({"ledger_anchor": True}, "ledger_anchor"),
    ({"ledger_anchor": None}, "ledger_anchor"),
    ({"reference_link": None}, "reference_link"),
])
def test_a_commitment_checks_its_fields(fields, name):
    good = {"content_hash": "0" * 64, "reference_link": "", "ledger_anchor": 1}
    assert reporting.ReportCommitment(**good).ledger_anchor == 1
    with pytest.raises(MalformedFile, match=f"^{name}: "):
        reporting.ReportCommitment(**{**good, **fields})


@pytest.mark.parametrize("field, value, code", [
    ("bdi", "1.000000000", "RecomputeMismatch"),
    ("g", "0.200000000", "CycleMismatch"),
], ids=["edited-bdi", "edited-g"])
def test_verify_checks_a_lapsed_report(vintage, baseline, field, value, code):
    # the report carries g forward from a carry_cycle slice: its index fields
    # still recompute, and its g is the g the last begin_cycle put in force
    record, log = lapsed_cycle(vintage, baseline)
    report = reporting.build_report(record, log, len(log), [], baseline)
    assert report[field] != value
    assert _verify_recommitted(report, baseline, log, **{field: value}) \
        == (False, [code])


def test_verify_needs_a_g_in_force_before_a_carry_cycle(vintage, baseline):
    record, log = lapsed_cycle(vintage, baseline)
    data = reporting.serialize(
        reporting.build_report(record, log, len(log), [], baseline))
    assert [e["op"] for e in log] == ["genesis", "begin_cycle", "carry_cycle"]
    del log[1]
    assert reporting.verify(data, reporting.commit(data, len(log)), baseline, log) \
        == (False, ["MalformedEventLog"])


def _drop_op(events, i):
    del events[i]["op"]


def _drop_inputs(events, i):
    del events[i]["inputs"]


def _drop_amount(events, i):
    inputs = events[i]["inputs"]
    del inputs["burned" if "burned" in inputs else "released"]


def _string_amount(events, i):
    inputs = events[i]["inputs"]
    inputs["burned" if "burned" in inputs else "released"] = "5"


def _float_amount(events, i):
    inputs = events[i]["inputs"]
    key = "burned" if "burned" in inputs else "released"
    inputs[key] = float(inputs[key])


def _list_entry(events, i):
    events[i] = [events[i]["op"]]


@pytest.mark.parametrize("tamper", [_drop_op, _drop_inputs, _drop_amount,
                                    _string_amount, _float_amount, _list_entry])
def test_verify_reports_malformed_event_log(vintage, baseline, tamper):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    data = reporting.serialize(report)
    for op_name in ("advance_month", "release_escrow"):
        tampered = json.loads(json.dumps(events))
        tamper(tampered, next(i for i, e in enumerate(events) if e["op"] == op_name))
        ok, problems = reporting.verify(
            data, reporting.commit(data, len(tampered)), baseline, tampered)
        assert (ok, problems) == (False, ["MalformedEventLog"]), op_name


def test_verify_rejects_a_log_without_the_report_slice(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    data = reporting.serialize(
        reporting.build_report(record, events, len(events), [], baseline))
    cases = [
        (events, reporting.commit(data, ledger_anchor=len(events) + 1)),  # past the end
        # no cycle event before the anchor
        (events[1:], reporting.commit(data, len(events) - 1)),
    ]
    for log, commitment in cases:
        ok, problems = reporting.verify(data, commitment, baseline, log)
        assert (ok, problems) == (False, ["MalformedEventLog"])


def test_verify_detects_an_edit_that_keeps_net_issuance(vintage, baseline):
    # one more unit emitted and one more burned: issued - burned is unchanged
    record, state, events = executed_cycle(vintage, baseline)
    data = reporting.serialize(
        reporting.build_report(record, events, len(events), [], baseline))
    edited = json.loads(json.dumps(events))
    month = edited[-1]["inputs"]
    assert edited[-1]["op"] == "advance_month" and month["burned"] > 0
    month["emitted"] += 1
    month["burned"] += 1
    ok, problems = reporting.verify(data, reporting.commit(data, len(edited)),
                                    baseline, edited)
    assert (ok, problems) == (False, ["SupplyReconciliationGap"])


def test_verify_cuts_each_report_slice_from_the_whole_log(vintage, baseline):
    # two years with flows in both; each report is checked against the whole
    # log, cut at its own anchor back to its own begin_cycle
    first, state, _ = executed_cycle(vintage, baseline)
    year_end = state.n_events
    second, state, _ = executed_cycle(vintage, baseline, state=state, year=2027)
    log = state.event_log
    for record, start, anchor in ((first, 1, year_end), (second, year_end, len(log))):
        report = reporting.build_report(record, log, anchor, [], baseline)
        assert report["executed_actions"]
        data = reporting.serialize(report)
        ok, problems = reporting.verify(
            data, reporting.commit(data, ledger_anchor=anchor), baseline, log)
        assert ok, problems


def _raised_g(cycle):
    cycle["inputs"]["g"] += 10 ** 8


def _string_year(cycle):
    cycle["inputs"]["year"] = str(cycle["inputs"]["year"])


@pytest.mark.parametrize("tamper, code", [
    (_raised_g, "CycleMismatch"),
    (None, "CycleMismatch"),             # the begin_cycle deleted
    (_string_year, "MalformedEventLog"),
])
def test_verify_ties_a_report_to_its_cycle_event(vintage, baseline, tamper, code):
    # three years without actions, and 2027's report checked against the
    # whole log: a deleted begin_cycle puts 2028's in its place, so the
    # report's actions (none) still match its slice
    state, records = None, []
    for year in (2026, 2027, 2028):
        record, state, _ = executed_cycle(vintage, baseline, False, state, year)
        records.append(record)
    log = json.loads(json.dumps(state.event_log))
    assert [e["op"] for e in log[1:]] == ["begin_cycle"] * 3
    data = reporting.serialize(
        reporting.build_report(records[1], log, 3, [], baseline))
    commitment = reporting.commit(data, ledger_anchor=3)
    assert reporting.verify(data, commitment, baseline, log) == (True, [])
    if tamper is None:
        del log[2]
    else:
        tamper(log[2])
    assert reporting.verify(data, commitment, baseline, log) == (False, [code])


def test_verify_rejects_non_object_report(baseline):
    data = b"[]"
    ok, problems = reporting.verify(data, reporting.commit(data, 1), baseline, [])
    assert (ok, problems) == (False, ["SchemaIncomplete"])


def test_single_field_tamper_always_detected(vintage, baseline):
    record, state, events = executed_cycle(vintage, baseline)
    report = reporting.build_report(record, events, len(events), [], baseline)
    commitment = reporting.commit(reporting.serialize(report), len(events))
    rng = random.Random(5)
    serialized = reporting.serialize(report)
    keys = list(report.keys())
    for _ in range(100):
        tampered = json.loads(serialized)
        key = rng.choice(keys)
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
        ok, problems = reporting.verify(
            reporting.serialize(tampered), commitment, baseline, events
        )
        assert not ok, f"tampering {key} went undetected"
