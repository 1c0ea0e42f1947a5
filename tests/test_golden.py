"""Golden determinism fixtures and the composite-month transition check.

The frozen hashes below pin every hashed byte the engine produces for a few
short seeded scenarios and for a serialized ledger with five years of
history (tests/test_cli.py pins the files of one `kld cycle` state
directory the same way). A change that moves any of them changes an artifact
that third parties replay, so it must be made on purpose and the values
re-frozen once, with the reason recorded.
"""

import hashlib
import json

import pytest

from kladia import fixedpoint as fp
from kladia import ledger as lg
from kladia import simulator as sim
from kladia.policy import PolicyParams

SCENARIOS = {
    "plain": sim.Scenario(seed=11, years=5),
    "dispute_years": sim.Scenario(seed=12, years=5, dispute_years=(1, 3)),
    "outlier": sim.Scenario(seed=13, years=5,
                            oracle_behaviors={"op-2": "outlier"}),
    "missing": sim.Scenario(seed=14, years=5,
                            oracle_behaviors={"op-4": "missing"}),
    "governance_script": sim.Scenario(
        seed=15, years=5,
        governance_script=({"year": 2, "changes": {"b_max": "0.8",
                                                   "gamma": "0.3"}},),
    ),
}

GOLDEN = {
    "plain": (
        "3021272df0c867d814f77482b0743d655e9021929bec00a15dfbb6f21231df90",
        ["e234412f2f3dff4834d579029da379b14d78683857e0ff5b1d7093553e1d2bcd",
         "f9f10e713f662a227de0197d0214b74f246ccc0045342028fa3b3f5de724d38b",
         "24a8fab961ad31e7aa4c1c6802fdd9fc58ec6740a809dfae0cd3862815137513",
         "22a019aa277082f120f390ff8f76debaa6d11aeee7bed950cd0d85ed8305bf44",
         "5bf60e3a2f2348b44706bfb307f7d4c4a73ddc69f9f5c29e0f235b48eac581d6"],
    ),
    "dispute_years": (
        "a233441e72f0901ae51324ea0b60991abb9ea19fa99f95d484ed59a527dd8fdf",
        ["16dad2d659553c1e33782dd4cf995410a0976ed527134fd6ed23e0f3dd8dfe31",
         "9b36314d7d96f0a0f41a9b965254a97211ce3e3a526f3b593d579b32c8b6def5",
         "bfd7cee4b98da844f9af77f3787e7600cbe28812d7bece14a2f0928bb15f3abf",
         "a70dfd86aafacc1b4e8d1f39e73e2373f8092278440ba069df64dff639daa7e2",
         "6b37924b7170e0767c23fdc902fca27aa0dae03344508971eed7afd17da4281a"],
    ),
    "outlier": (
        "7a481046b4184690886a4ccd8a3e1da49ba80f56cd0784bcbf16a6ef5c2dc838",
        ["a7d9c2ac9746e3f55305207fe0fd20fdc76190cfcb2f3cf9b8f60f9e481349c4",
         "db68142efa61d726cf0a16d989fa8e7c908f37137bdc323cb56f7270be7ffbac",
         "7d3e3e2d788c512e4f1e712d3cd596a9ed84f989b052e41738a9d9ccac44226c",
         "000d03a763fff5e0448a042cf03e6de0008a96d9ed5e60b719982ab4a6fee936",
         "af75912e5e028c1aaac3394eaf1a99192569ea408fd1c8c02ed2a214d8d04ab5"],
    ),
    "missing": (
        "811081c52fb926c76856b57156532c5ed6c23848b8fa563c10a7accc349d15b3",
        ["f138a30f53e8f538bc019c78f36ba2418a9df5b3aaf5e561213ebd4fe65659ac",
         "3d6202fe49fedceec15add581579a4795770aeeaebc8b5d0a1628aacf4f40a83",
         "7810c8464a8d54ec9a4c8943e52c6df9baee41ce04ff4eaf210f4bfb2dcfbbb7",
         "aefa42a18abc53cfd1e2c09301aa13cc3eacc079d67d2d38430b8d6122a9deda",
         "161d2e62f1ad9cdf26281ea7fd96c388327984fca4caf05f4a789eb0279d1c09"],
    ),
    "governance_script": (
        "acc415946c35740f4c0560b2d9fb0a337316106cca75a23db7389148f9115864",
        ["6dee544462c7e0428ac3c35442e30997109a3a38c2d4ca8f2bd1fe9b4ee8a7af",
         "add2233eaca5462e89b543fc8e2ccbbfd56a771ca08e0d34c9c644f3dcdb864d",
         "5f5171f42605bee94c87144896122e1512e293d4317a5fe9b9e731cff2eef7d8",
         "a8f098227f8f39d4261d20fa51bc17f96a906eee9794736918c7134c06ecb75f",
         "1c6320bf3726ade96464898f4e606ddb469de81e77810c4332cfa48eda79c2a4"],
    ),
}

LEDGER_RUN_STATE_HASH = (
    "5ca1969e921cfc2e5449a5a24bd3bdc591ec95460a8a0f7d29f8516ee7ffee34"
)
LEDGER_RUN_JSON_SHA = (
    "4b793d6a648e9fe6ff2224ec9cafbd8b8b401e93e3e622eb1547704fedf09718"
)

ESCROW_SIGNERS = tuple(f"escrow-{i}" for i in range(1, 9))
RESERVE_SIGNERS = tuple(f"reserve-{i}" for i in range(1, 8))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_golden_hashes(name):
    trace = sim.run(SCENARIOS[name])
    trace_hash, commitments = GOLDEN[name]
    assert trace.trace_hash() == trace_hash
    assert trace.report_commitments == commitments


def _ledger_run() -> lg.LedgerState:
    """Five years of every transition kind, driven by a fixed fee stream."""
    state = lg.genesis()
    params = PolicyParams()
    for year in range(5):
        state, _ = lg.begin_cycle(state, params, fp.from_str(f"0.{year + 1}"))
        for month in range(12):
            state, _ = lg.release_escrow(
                state, state.annual_factors.escrow_cap, ESCROW_SIGNERS[:5])
            if month == 3:
                state, _ = lg.spend_reserve(state, 10 ** 13, RESERVE_SIGNERS[:6])
            if month == 5:
                state = lg.relock(state, 10 ** 9, lg.BucketKind.ECOSYSTEM_ESCROW,
                                  "unused")
            if month == 7:
                state = lg.mark_distributed(
                    state, lg.BucketKind.ECOSYSTEM_ESCROW, 10 ** 9)
            fees = (year * 12 + month) * 77_777_777_777 % (3 * 10 ** 12)
            state, _ = lg.advance_month(state, fees)
    return state


def test_ledger_run_golden():
    state = _ledger_run()
    assert state.state_hash() == LEDGER_RUN_STATE_HASH
    # ledger.json is written without sort_keys, so this pins key order too
    dumped = json.dumps(lg.to_json_dict(state)).encode()
    assert hashlib.sha256(dumped).hexdigest() == LEDGER_RUN_JSON_SHA


# --- advance_month equals its parts ------------------------------------------

def _state_at(month_index: int, params: PolicyParams) -> lg.LedgerState:
    state = lg.genesis()
    state, _ = lg.begin_cycle(state, params, fp.from_str("0.2"))
    for m in range(month_index):
        if m and m % 12 == 0:
            state, _ = lg.begin_cycle(state, params, fp.from_str("0.2"))
        state, _ = lg.advance_month(state, (m + 1) * 3_333_333_333)
    return state


def _events(log: list[dict]) -> list[tuple]:
    return [(e["op"], e["inputs"], e["state_hash"]) for e in log]


@pytest.mark.parametrize("month_index, fees, r_base", [
    (0, 5_000_000_000, "0.001"),      # first cliff month
    (11, 7_123_456_789, "0.001"),     # last cliff month
    (12, 9_876_543_210, "0.001"),     # first vesting release
    (30, 1_234_567_891, "0.001"),     # mid vesting
    (47, 4_000_000_001, "0.001"),     # last release sweeps the remainder
    (48, 2_500_000_000, "0.001"),     # after vesting
    (30, 0, "0.001"),                 # zero fees: no burn event
    (30, 6_000_000_000, "0"),         # zero emission: no emit_staking event
    (5, 0, "0"),                      # neither, in the cliff
])
def test_advance_month_matches_composed_steps(month_index, fees, r_base):
    params = PolicyParams(r_base=fp.from_str(r_base))
    state = _state_at(month_index, params)
    start = len(state.event_log)
    before = state.state_hash()

    advanced, summary = lg.advance_month(state, fees)
    assert state.state_hash() == before
    assert len(state.event_log) == start

    composed = state
    if (composed.month_index >= composed.vesting.cliff_months
            and composed.vesting.released_months < composed.vesting.vest_months):
        composed, vested = lg.vest_month(composed)
        assert vested == summary["vested"]
    composed, emitted = lg.emit_staking(
        composed, composed.annual_factors.staking_rate)
    assert emitted == summary["emitted"]
    fee_pool = min(fees, composed.circulating)
    if summary["burned"] > 0:
        composed = lg.burn(composed, summary["burned"], fee_pool)

    new_events = advanced.event_log[start:]
    assert _events(new_events[:-1]) == _events(composed.event_log[start:])
    assert new_events[-1]["op"] == "advance_month"
    assert new_events[-1]["inputs"] == {"fees": fees, **summary}
    ops = [e["op"] for e in new_events]
    assert ("vest_month" in ops) == (12 <= month_index < 48)
    assert ("emit_staking" in ops) == (r_base != "0")
    assert ("burn" in ops) == (fees > 0)
