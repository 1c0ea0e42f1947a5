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
        "75ca02b77f6810313f2374f132b1c2d831eed42e292f16e7a97f333e327986a3",
        ["c898077b42483b2da12404d92a30f1e7ba0efe8d7ec6d8771b8c01c21627bb69",
         "cea1f30edd2347dea23faecce97ebae7d46b0f60c5d34c2fe1dd811bff92d87e",
         "24a8fab961ad31e7aa4c1c6802fdd9fc58ec6740a809dfae0cd3862815137513",
         "22a019aa277082f120f390ff8f76debaa6d11aeee7bed950cd0d85ed8305bf44",
         "638d71642abdfef4a2a74a9690eed049cdf243d32fea2ec1cc0c633ad65a2753"],
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
        "ba2096e2e50e39712417a4eb361f6018e6e6e8eabed6e4ae53324d31e8f6cdf2",
        ["878393b33ba532da6e192232a08d7b2680a6ae27e4ee60df84e400ad4daf2cdc",
         "6b8e6d5dda600b7e841a3ce4201ba62c6dfaa3420a9a0bfb81160a008ba20ddb",
         "4e51ef4b3f666160750deb91e16acd1eca23b6812471b599eaf75aa154929884",
         "db0d25ee2a749047bcbd27f26f5195b2945c195e18512624e558258ffe948681",
         "e176ac00be4d93ec6286b7aca3da0114894eed66e39ca1e8e209efc38668974c"],
    ),
    "missing": (
        "5f3bdae0890e659ae87bc3a7bc6148786bd481a09b401b3a22ed66a6e37542df",
        ["13ac677f0b46fab8762bdc36b24a9472bf4c12b218f418f18507ce493f98c010",
         "a6aef3cc8965b26e6e759109b69e0a98c4c8912075d0d78d1a900b99ad4e0d5a",
         "1ef3c260b52593489c8ea9f44b9b31020f87cd25f6e8318bed8f11c74ed31445",
         "17d5b6344aeae5fd4b59f60a9296bc09c1e7748e9ffd3c5a76c8bc8563e930aa",
         "c3e9767b2dd748e6457ccae6c9174705edcc136ee8137c8ebbb5ebd044de2cc8"],
    ),
    "governance_script": (
        "1d7622aead13fbdbf811ed0eaa9946f973c41579e0c95adc9baf4e52a1721e6a",
        ["5d9043669448d168c7ba6983ab9b1fb8e729acc4f9e9b56707157c42d6fdb724",
         "b25b18e4522cccd752bd4640645511fb30c40bd4f695f79e7044c38b71de3a64",
         "9b8f742a820886ad9ddb1da17d4fb34ce81639cc11aec2a48b70ff04b7e0173c",
         "517e886213ffcd7ca8d09425c5df303fd47b70b4f49bb16be31fd029ecfb78e7",
         "88214b44687d4003cbbd017431bf343d153d2e405ef268c0eed187cecbc739a9"],
    ),
}

LEDGER_RUN_STATE_HASH = (
    "5ca1969e921cfc2e5449a5a24bd3bdc591ec95460a8a0f7d29f8516ee7ffee34"
)
LEDGER_RUN_JSON_SHA = (
    "0861a83d52e297415b6c6d2bc07aed4fb6d6038a29d7a491feec691ba8e3309e"
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
