"""Golden determinism fixtures and the month transition against its steps.

The frozen hashes below pin every hashed byte the engine produces for a few
short seeded scenarios and for a serialized ledger with five years of
history (tests/test_cli.py pins the files of one `kld cycle` state
directory the same way). A change that moves any of them changes an artifact
that third parties replay, so it must be made on purpose and the values
re-frozen once, with the reason recorded.
"""

import copy
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
        "cf9642087772066af3c075a00732d1581d6ee4d8c512171de0ebc8fc6819e4aa",
        ["129420ca42146880438f419fb11c179723e4fbc3af6b3a188eab05f2df1ebbdc",
         "c1e92f3038158bebded46bbff01f391815a44e003f67a821ff902ea371f1a114",
         "644e57c8b483b717237b258b0864b2f13d47b127676be9094ea4b4e716cfce51",
         "61d3cd6302175eeed4757eb8fafb03b83dec8f611de0201f0c9127edf30a45e2",
         "bd82187f0f20256b00e5ef745d5c7dd31e7c84e9e9d19926f5a5e583cf5d2b00"],
    ),
    "dispute_years": (
        "9941c38ea19787651b0dda2cf9d14beba366321f8ed9157829d41aec0c7cb1da",
        ["ae03e73d0ae6ab7811e7bad81692cf1938e9bc22e1b78ad427e008802d92fb65",
         "781d8aaf127f62b5cdf708bd97e1e9d1926dead878f38217199def27b6ccea98",
         "f9a7ad601a9cbf469d18f397a0265018c71c2b8dd9506f0fb49cecd58d8e43da",
         "c18285855bb2652906b758a813abe10c5c309a53c24ee9c2cf40692679c3f36b",
         "82751b8815a0d6e1949ad2bfa1f1c5b8258c9333bb42696421d80909cd420adb"],
    ),
    "outlier": (
        "d7be29a3b820a8d78001eabcd2d05ebef176af135df85554f72d04114e620c21",
        ["9af64701411681c3c1ff1b66ba349dd0647f260a47fa0ce3cd979df5c1766914",
         "531258e62e31c1a4b10ffc3a1e7b96dada0866986e1f6a7bc6d505c17e9e038e",
         "9c1861f7a87cbcbb7caf198102a5cc4a9c3fef93796eb808f6bfc4ec137cee43",
         "fbaa7dd5b7ab261f89b448a4e7bc0829ce8bde07c7bc5fe42ef4b9ce0ba3ff18",
         "799273afe90ebe1c6c06027418670b58dacd9a58681ff71ddffe0ec70f83423e"],
    ),
    "missing": (
        "6dabb2b864c3e32df856530911e09d8fe15054244f2310cb844fbded01d4b1ef",
        ["d7576ba1558d345874295e6d75b2ed08207f6543f2e3115c2b4d3817a674688b",
         "1a6d2a7f4ebba80656afd52304dedd38a9508424b7d7d9e8aeddab95ea7bf09e",
         "30605d83c91409c502f209fd1641428de302647a7f9aae84be8e749d2b97b22c",
         "fbbf18192ba503b15943e5e9952f3eec42ee3263dd0de6575d81b800d07d4105",
         "4a66cb54a1192b75de05ceae2b6308ea2354ffcc59d105517aeec5b9685723fb"],
    ),
    "governance_script": (
        "6b05db86ed6612fce216265b0a9f8f49dbdf19b0139d4d31b130b4ab869f8e1a",
        ["097ed7c67f6d8d8b59cfe8dba3012177838139a51b7c8fa02df031945f18da23",
         "91828a90ffa87e4aa62ecc8e44505557bda751dc93916c35418d76522c83da5e",
         "38b635c165c4f161d67446975f68a9036226801343d15975e4464a98c858e7e6",
         "0531b3c5f1e7cfda77c6487eb3cf89b536a4035199186957d1624cad84a38a1a",
         "b4906c8de51069f2a7e6d025465c25c1ab69e308f3f0564b522047121c3cf6ad"],
    ),
}

# SHA-256 of json.dumps([trace.rows, trace.cycles]): what a run computes,
# apart from where its events sit in the journal
ROWS_GOLDEN = {
    "plain": "5f298e7951eb96b6c0b8730dc4b692218019f16d3146075aed3d958f5519f43e",
    "dispute_years":
        "542a2b3ea1e96ed1ca03f0cae49214e386258d50ce927316755f231fe69e8514",
    "outlier": "193a924809b0dc3e1a8addd1e68be679d384e51da831f9a7837cf848e0dcce59",
    "missing": "fec391ef8bf1932f4a4d4f6195246ea0faee331469920d3a7381c7cec2af5e89",
    "governance_script":
        "55c93ed9483eacf4647d9ceee6f45ed6af6f71b41db9262fc924e3f8a9f415be",
}

LEDGER_RUN_STATE_HASH = (
    "82b1e1e5ec487f02182f5d9d90280d8ed625f92fcc2a59721ac59d870f9b4203"
)
LEDGER_RUN_JSON_SHA = (
    "b610f9d410eb7be2a39ac16ecbbde37ae44902819282c7f7f0c5ebb529e6941f"
)

ESCROW_SIGNERS = tuple(f"escrow-{i}" for i in range(1, 9))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_golden_hashes(name):
    trace = sim.run(SCENARIOS[name])
    rows = json.dumps([trace.rows, trace.cycles]).encode()
    assert hashlib.sha256(rows).hexdigest() == ROWS_GOLDEN[name]
    trace_hash, commitments = GOLDEN[name]
    assert trace.trace_hash() == trace_hash
    assert trace.report_commitments == commitments


def _ledger_run() -> lg.LedgerState:
    """Five years of every transition kind, driven by a fixed fee stream."""
    state = lg.genesis()
    params = PolicyParams()
    for year in range(5):
        state = lg.begin_cycle(state, params, fp.from_str(f"0.{year + 1}"),
                               2026 + year)
        for month in range(12):
            state, _ = lg.release_escrow(
                state, state.annual_factors.escrow_cap, ESCROW_SIGNERS[:5])
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
    state = lg.begin_cycle(state, params, fp.from_str("0.2"), 2026)
    for m in range(month_index):
        if m and m % 12 == 0:
            state = lg.begin_cycle(state, params, fp.from_str("0.2"), 2026 + m // 12)
        state, _ = lg.advance_month(state, (m + 1) * 3_333_333_333)
    return state


@pytest.mark.parametrize("month_index, fees, r_base", [
    (0, 5_000_000_000, "0.001"),      # first cliff month
    (11, 7_123_456_789, "0.001"),     # last cliff month
    (12, 9_876_543_210, "0.001"),     # first vesting release
    (30, 1_234_567_891, "0.001"),     # mid vesting
    (47, 4_000_000_001, "0.001"),     # last release sweeps the remainder
    (48, 2_500_000_000, "0.001"),     # after vesting
    (30, 0, "0.001"),                 # zero fees: no burn
    (30, 6_000_000_000, "0"),         # zero emission
    (5, 0, "0"),                      # neither, in the cliff
])
def test_advance_month_matches_composed_steps(month_index, fees, r_base):
    params = PolicyParams(r_base=fp.from_str(r_base))
    state = _state_at(month_index, params)
    before = copy.deepcopy(state)

    advanced, summary = lg.advance_month(state, fees)
    assert state == before

    # the steps composed by hand in their fixed order: the vesting release
    # if due, the emission floor(reserve * rate) under the year's budget,
    # then the burn from the fee pool those two leave circulating, with
    # the carried 1/SCALE dust
    total, factors = 2_500_000_000 * lg.UNIT, state.annual_factors
    release = month_index - 11  # the vesting release this month makes, if any
    vested = (total // 36 if 1 <= release < 36
              else total - 35 * (total // 36) if release == 36 else 0)
    reserve = state.buckets[lg.BucketKind.STAKING_RESERVE]
    emitted = min(reserve * factors.staking_rate // fp.SCALE,
                  max(0, factors.issuance_budget - state.issuance_used_year))
    pool = min(fees, state.circulating + vested + emitted)
    raw = pool * factors.burn_fraction + state.burn_dust
    burned = min(raw // fp.SCALE, pool)
    assert summary == {"vested": vested, "emitted": emitted, "burned": burned}
    assert (vested > 0) == (12 <= month_index < 48)
    assert (emitted > 0) == (r_base != "0")
    assert (burned > 0) == (fees > 0)

    assert advanced.circulating == state.circulating + vested + emitted - burned
    assert advanced.burned_cumulative == state.burned_cumulative + burned
    assert advanced.burn_dust == raw % fp.SCALE
    assert advanced.snapshot()["vesting"]["released_months"] == (
        state.snapshot()["vesting"]["released_months"] + (12 <= month_index < 48))
    assert advanced.month_index == month_index + 1
    # one event, logging the fees and the three amounts
    assert advanced.event_log[:-1] == state.event_log
    assert advanced.event_log[-1]["op"] == "advance_month"
    assert advanced.event_log[-1]["inputs"] == {"fees": fees, **summary}
