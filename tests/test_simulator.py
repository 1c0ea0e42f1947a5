import pytest

from kladia import fixedpoint as fp
from kladia import simulator as sim
from kladia.errors import ScenarioInvalid
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
