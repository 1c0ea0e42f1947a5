import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from kladia import fixedpoint as fp
from kladia import ledger as lg
from kladia import reporting
from kladia import simulator as sim
from kladia.errors import MalformedFile, ScenarioInvalid
from kladia.policy import PolicyParams


def test_splitmix64_reference_values():
    # published reference sequence for seed 1234567
    rng = sim.SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_replay_determinism():
    scenario = sim.Scenario(seed=42, years=4, dispute_years=(2,))
    a = sim.run(scenario)
    b = sim.run(scenario)
    assert a.trace_hash() == b.trace_hash()
    assert a.rows == b.rows


def test_different_seeds_diverge():
    a = sim.run(sim.Scenario(seed=1, years=3))
    b = sim.run(sim.Scenario(seed=2, years=3))
    assert a.rows != b.rows


def test_flat_debt_neutral_regime():
    scenario = sim.Scenario(
        seed=5, years=5, debt_drift_bp=(0, 0), gdp_drift_bp=(0, 0),
        fee_range_kld=(0, 0),
    )
    trace = sim.run(scenario)
    assert all(row["g"] == fp.to_str(0) for row in trace.rows)
    assert all(row["burned_month"] == 0 for row in trace.rows)
    assert trace.rows[-1]["burned"] == 0
    # releases run at the full monthly cap every month
    assert all(row["released"] > 0 for row in trace.rows)


def test_rising_debt_monotone_policy():
    scenario = sim.Scenario(
        seed=9, years=10, debt_drift_bp=(700, 700), gdp_drift_bp=(0, 0),
        fee_range_kld=(1000, 1000),
    )
    trace = sim.run(scenario)
    g_by_year = {}
    for row in trace.rows:
        g_by_year[row["year"]] = row["g"]
    g_values = [fp.from_str(g_by_year[y]) for y in sorted(g_by_year)]
    assert all(a <= b for a, b in zip(g_values, g_values[1:]))
    assert g_values[-1] > g_values[0]


def test_dispute_year_carries_prior_g():
    scenario = sim.Scenario(seed=3, years=4, dispute_years=(3,),
                            debt_drift_bp=(300, 500))
    trace = sim.run(scenario)
    g_by_year = {row["year"]: row["g"] for row in trace.rows}
    assert g_by_year[3] == g_by_year[2]
    assert trace.cycles[2]["status"] == "LapsedToLastConfirmed"
    assert trace.cycles[2]["carried_forward"] is True


def test_conservation_every_row():
    from kladia.ledger import S_MAX

    trace = sim.run(sim.Scenario(seed=8, years=6, dispute_years=(4,)))
    # rows expose circulating/burned/escrow; full conservation is asserted
    # inside every ledger transition, so reaching here means it held
    assert len(trace.rows) == 72
    assert all(
        row["circulating"] + row["burned"] <= S_MAX for row in trace.rows
    )


def test_higher_issuance_sensitivity_releases_less():
    base = dict(seed=4, years=6, debt_drift_bp=(500, 500), gdp_drift_bp=(0, 0))
    low = sim.run(sim.Scenario(
        params=PolicyParams(alpha_i=fp.from_str("0.3")), **base))
    high = sim.run(sim.Scenario(
        params=PolicyParams(alpha_i=fp.from_str("0.6")), **base))
    low_released = sum(r["released"] + r["emitted"] for r in low.rows)
    high_released = sum(r["released"] + r["emitted"] for r in high.rows)
    assert high_released <= low_released


def test_scenario_validation():
    with pytest.raises(ScenarioInvalid):
        sim.run(sim.Scenario(seed=1, years=0))
    with pytest.raises(ScenarioInvalid):
        sim.run(sim.Scenario(seed=1, years=2, dispute_years=(5,)))
    with pytest.raises(ScenarioInvalid):
        sim.run(sim.Scenario(seed=1, years=2,
                             oracle_behaviors={"nobody": "honest"}))
    with pytest.raises(ScenarioInvalid, match="^need at least one operator$"):
        sim.run(sim.Scenario(seed=1, years=2, operators=()))
    with pytest.raises(ScenarioInvalid,
                       match="^operator op-9 is not on the oracle roster$"):
        sim.run(sim.Scenario(seed=1, years=1, operators=("op-1", "op-9")))
    with pytest.raises(ScenarioInvalid, match="^unknown behavior 'asleep'$"):
        sim.run(sim.Scenario(seed=1, years=2, oracle_behaviors={"op-1": "asleep"}))
    with pytest.raises(ScenarioInvalid, match="^fee_range_kld: lo > hi$"):
        sim.run(sim.Scenario(seed=1, years=2, fee_range_kld=(2, 1)))
    for fee_range in ((-5, -1), (-1, 0)):
        with pytest.raises(ScenarioInvalid, match="^fee_range_kld: a negative fee$"):
            sim.run(sim.Scenario(seed=1, years=1, fee_range_kld=fee_range))
    with pytest.raises(ScenarioInvalid, match="^debt_drift_bp: lo > hi$"):
        sim.run(sim.Scenario(seed=1, years=2, debt_drift_bp=(600, -200)))
    with pytest.raises(ScenarioInvalid, match="^a drift below -10000 bp$"):
        sim.run(sim.Scenario(seed=1, years=2, debt_drift_bp=(-20000, -15000)))
    with pytest.raises(ScenarioInvalid, match="^a drift below -10000 bp$"):
        sim.run(sim.Scenario(seed=1, years=2, gdp_drift_bp=(-10001, 500)))
    with pytest.raises(ScenarioInvalid, match="^governance year outside horizon$"):
        sim.run(sim.Scenario(seed=1, years=2, governance_script=(
            {"year": 9, "changes": {"gamma": "0.7"}},)))
    with pytest.raises(ScenarioInvalid, match=r"^not a policy parameter: \['lambda'\]$"):
        sim.run(sim.Scenario(seed=1, years=2, governance_script=(
            {"year": 2, "changes": {"lambda": "2"}},)))


def test_a_full_drop_floors_every_level_at_one():
    # -10,000 bp, the lowest drift validate admits, takes each level to 0,
    # and the level floor lifts it to 1
    trace = sim.run(sim.Scenario(seed=1, years=1, debt_drift_bp=(-10000, -10000),
                                 gdp_drift_bp=(-10000, -10000)))
    median = trace.cycles[0]["median"]
    assert set(median["debt_ratios"].values()) == {"1.000000000"}
    assert set(median["nominal_gdps"].values()) == {"1.000000000"}


def test_scenario_years_run_from_one_to_the_horizon():
    # a dispute or governance event in the first and in the last year is inside
    sim.Scenario(seed=1, years=2, dispute_years=(1, 2), governance_script=(
        {"year": 1, "changes": {"gamma": "0.7"}},
        {"year": 2, "changes": {"beta_b": "0.6"}})).validate()


def test_a_dispute_year_with_two_submissions_lapses():
    # one of three operators submits nothing, so the two flags come from the
    # only two submissions there are
    trace = sim.run(sim.Scenario(seed=3, years=2, dispute_years=(2,),
                                 operators=("op-1", "op-2", "op-3"),
                                 oracle_behaviors={"op-3": "missing"}))
    assert [c["status"] for c in trace.cycles] == ["Executed",
                                                   "LapsedToLastConfirmed"]


def test_outlier_operator_absorbed_by_median():
    base = dict(seed=6, years=3, debt_drift_bp=(100, 100), gdp_drift_bp=(0, 0))
    honest = sim.run(sim.Scenario(**base))
    with_outlier = sim.run(sim.Scenario(
        oracle_behaviors={"op-5": "outlier"}, **base))
    assert [r["g"] for r in honest.rows] == [r["g"] for r in with_outlier.rows]


def test_table_output_shape():
    trace = sim.run(sim.Scenario(seed=1, years=1))
    table = trace.to_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("month,year,g,")
    assert len(lines) == 13


@pytest.mark.parametrize("dispute_years, match", [
    ((), "cycle 1 .*RecomputeMismatch"),
    ((2,), r"cycle 2 .*\['CycleMismatch'\]"),
], ids=["executed", "carried-forward"])
def test_each_report_is_verified_before_it_is_committed(monkeypatch, dispute_years,
                                                        match):
    # the per-year self-check re-derives the report's g from its median, and
    # requires it to be the g in force, a carried-forward report's too: a
    # report built with another g (every report, or only the year that
    # lapses), then serialized and committed as it stands, must stop the run
    build_report = sim.reporting.build_report

    def altered_g(*args, **kwargs):
        report = build_report(*args, **kwargs)
        if report["carried_forward"] or not dispute_years:
            report["g"] = "0.999999999"
        return report

    monkeypatch.setattr(sim.reporting, "build_report", altered_g)
    with pytest.raises(AssertionError, match=match):
        sim.run(sim.Scenario(seed=3, years=2, dispute_years=dispute_years))


def _committed(monkeypatch, scenario):
    """Run `scenario`; return its baseline, its whole journal, and each
    year's report bytes with the commitment the simulator made of them."""
    built, committed = [], []
    build_report, commit = sim.reporting.build_report, sim.reporting.commit

    def capture_build(record, event_log, anchor, governance_log, baseline):
        built.append((event_log, baseline))
        return build_report(record, event_log, anchor, governance_log, baseline)

    def capture_commit(report_bytes, ledger_anchor):
        commitment = commit(report_bytes, ledger_anchor)
        committed.append((report_bytes, commitment))
        return commitment

    monkeypatch.setattr(sim.reporting, "build_report", capture_build)
    monkeypatch.setattr(sim.reporting, "commit", capture_commit)
    trace = sim.run(scenario)
    monkeypatch.undo()
    journal, baseline = built[-1]
    assert [c.content_hash for _, c in committed] == trace.report_commitments
    assert committed[-1][1].ledger_anchor == len(journal)
    return baseline, list(journal), committed


def test_each_commitment_names_its_report_slice(monkeypatch):
    # every year's report verifies against the run's whole journal, cut at
    # the anchor the simulator committed it with, the lapsed year included
    baseline, journal, committed = _committed(monkeypatch, sim.Scenario(
        seed=3, years=5, dispute_years=(2,),
        oracle_behaviors={"op-2": "outlier", "op-4": "missing"}))
    assert len(committed) == 5
    for report_bytes, commitment in committed:
        assert reporting.verify(report_bytes, commitment, baseline, journal) \
            == (True, [])


def _mutations(log, start, end):
    """(name, mutated copy of `log`) for each mutation of each event in
    log[start:end]: each int input, and each int of a list input, raised by
    1; `op` and `state_hash` changed; one approval dropped; the event
    deleted, swapped with the next, or duplicated. A name is the op and the
    field, or the op after the structural edit."""
    for pos in range(start, end):
        event = log[pos]
        op = event["op"]

        def edited(change):
            copy = json.loads(json.dumps(event))
            change(copy)
            return log[:pos] + [copy] + log[pos + 1:]

        for key, value in event["inputs"].items():
            if type(value) is int:
                yield f"{op}.{key}", edited(
                    lambda e, k=key: e["inputs"].update({k: e["inputs"][k] + 1}))
            elif type(value) is list:
                for i in range(len(value)):
                    def raise_item(e, k=key, i=i):
                        e["inputs"][k][i] += 1
                    yield f"{op}.{key}", edited(raise_item)
        for key in ("op", "state_hash"):
            yield f"{op}.{key}", edited(lambda e, k=key: e.update({k: e[k] + "x"}))
        if event["approvals"]:
            yield f"{op}.approvals", edited(lambda e: e["approvals"].pop())
        yield f"delete {op}", log[:pos] + log[pos + 1:]
        if pos + 1 < len(log):
            yield f"swap {op}", log[:pos] + [log[pos + 1], event] + log[pos + 2:]
        yield f"duplicate {op}", log[:pos + 1] + log[pos:]


# the mutations each check lets pass, by name (a name passes when any one of
# its mutations does). A change that closes a gap removes its name; no name
# is ever added.
VERIFY_MISSES = {
    "advance_month.fees",            # nothing replays the month
    "begin_cycle.coefficients",      # nor the cycle's derived factors
    "begin_cycle.e_base",
    "begin_cycle.i_base",
    "begin_cycle.state_hash",        # a cycle event carries no action hash
    "carry_cycle.state_hash",
    "duplicate advance_month",       # some: a month that moves nothing
    "release_escrow.approvals",      # signer_set is a union over the slice
    "release_escrow.requested",      # a request at the cap releases the same
}
REPLAY_MISSES = {
    "begin_cycle.coefficients",      # some: the state hash leaves the
                                     # annual factors out
    "begin_cycle.year",              # the last cycle event's year + 1
    "delete advance_month",          # the log's last event: a shorter ledger
    "release_escrow.requested",
}


def test_journal_tamper_sweep(monkeypatch):
    # every event of every report's slice is mutated; each report is checked
    # with the simulator's own commitment against the whole mutated journal,
    # and the journal is replayed from genesis
    baseline, journal, committed = _committed(
        monkeypatch, sim.Scenario(seed=3, years=3, dispute_years=(2,)))
    lg.from_json_dict({"event_log": journal})
    verify_misses, replay_misses, swept = set(), set(), 0
    for report_bytes, commitment in committed:
        assert reporting.verify(report_bytes, commitment, baseline, journal) \
            == (True, [])
        start, end = reporting._report_slice(journal, commitment.ledger_anchor)
        for name, log in _mutations(journal, start, end):
            swept += 1
            if reporting.verify(report_bytes, commitment, baseline, log)[0]:
                verify_misses.add(name)
            try:
                lg.from_json_dict({"event_log": log})
            except MalformedFile:
                continue
            replay_misses.add(name)
    assert swept == 653
    assert verify_misses == VERIFY_MISSES
    assert replay_misses == REPLAY_MISSES


# the commit-file edits `verify` lets pass, by name. A change that closes a
# gap removes its name; no name is ever added.
COMMIT_MISSES = set()


def test_commit_file_tamper_sweep(monkeypatch):
    # each report is checked against the whole journal with a well-formed
    # edit of the simulator's own commitment: every other anchor into the
    # journal, each other report's content hash, and the last hex digit of
    # its own hash changed
    baseline, journal, committed = _committed(
        monkeypatch, sim.Scenario(seed=3, years=3, dispute_years=(2,)))
    hashes = [commitment.content_hash for _, commitment in committed]
    misses, swept = set(), 0
    for report_bytes, commitment in committed:
        own, anchor = commitment.content_hash, commitment.ledger_anchor
        edits = [("ledger_anchor", replace(commitment, ledger_anchor=other))
                 for other in range(1, len(journal) + 1) if other != anchor]
        edits += [("other report's content_hash",
                   replace(commitment, content_hash=other))
                  for other in hashes if other != own]
        digit = format((int(own[-1], 16) + 1) % 16, "x")
        edits.append(("content_hash last digit",
                      replace(commitment, content_hash=own[:-1] + digit)))
        for name, edit in edits:
            swept += 1
            if reporting.verify(report_bytes, edit, baseline, journal)[0]:
                misses.add(name)
    assert swept == 234
    assert misses == COMMIT_MISSES


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       years=st.one_of(st.integers(3, 12), st.integers(30, 50)),
       shift=st.sampled_from((1, 10, 50, 100, 300)),
       dispute_years=st.lists(st.integers(1, 50), max_size=2, unique=True),
       outlier=st.booleans())
def test_higher_debt_drift_never_lowers_g_nor_raises_supply(
        seed, years, shift, dispute_years, outlier):
    # the paper's headline claim through the whole pipeline: shifting both
    # ends of the debt drift up keeps every random draw and raises every
    # debt path, so each year's confirmed g is at least as high and
    # circulating supply at most as high, month by month
    disputes = {(y - 1) % years + 1 for y in dispute_years}
    base = dict(seed=seed, years=years, dispute_years=tuple(sorted(disputes)),
                oracle_behaviors={"op-2": "outlier"} if outlier else {})
    lowest, highest = sim.Scenario.debt_drift_bp
    low, high = (sim.run(sim.Scenario(
        debt_drift_bp=(lowest + d, highest + d), **base)) for d in (0, shift))
    for lo, hi in zip(low.cycles, high.cycles):
        assert fp.from_str(hi["confirmed_g"]) >= fp.from_str(lo["confirmed_g"])
    for lo, hi in zip(low.rows, high.rows):
        assert hi["circulating"] <= lo["circulating"]
