import copy
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LEDGER_WITH_DERIVED_SECTIONS
from kladia import fixedpoint as fp
from kladia import governance as gov
from kladia import ledger as lg
from kladia.canonical import content_hash
from kladia.errors import (
    AllocationMismatch,
    ConservationViolation,
    InsufficientApprovals,
    KladiaError,
    MalformedFile,
    ZeroCap,
)
from kladia.ledger import BucketKind
from kladia.policy import PolicyFactors, PolicyParams

ESCROW_SIGNERS = tuple(f"escrow-{i}" for i in range(1, 9))


def fresh_cycle(g="0.0", params=None):
    return lg.begin_cycle(lg.genesis(), params or PolicyParams(), fp.from_str(g), 2026)


def _reloaded(state):
    """The same state through its JSON dump, sharing nothing with it."""
    return lg.from_json_dict(json.loads(json.dumps(lg.to_json_dict(state))))


# --- genesis -----------------------------------------------------------------

def test_genesis_allocation_exactness():
    state = lg.genesis()
    expected_kld = {
        BucketKind.ECOSYSTEM_ESCROW: 5_500_000_000,
        BucketKind.TEAM_VESTING: 2_500_000_000,
        BucketKind.COMPANY_RESERVE: 1_000_000_000,
        BucketKind.COMMUNITY_AIRDROP: 500_000_000,
        BucketKind.STAKING_RESERVE: 300_000_000,
        BucketKind.LIQUIDITY_PARTNERSHIPS: 150_000_000,
        BucketKind.LEGAL_TREASURY: 50_000_000,
    }
    for kind, kld in expected_kld.items():
        assert state.buckets[kind] == kld * lg.UNIT
    assert sum(state.buckets.values()) == lg.S_MAX
    assert state.circulating == 0
    assert state.burned_cumulative == 0


def test_genesis_allocation_mismatch():
    # a stored genesis event is the one way outside allocations arrive
    data = json.loads(json.dumps(lg.to_json_dict(lg.genesis())))
    data["event_log"][0]["inputs"]["allocations_kld"]["EcosystemEscrow"] -= 100_000_000
    with pytest.raises(MalformedFile, match=r"^event 0: AllocationMismatch: "):
        lg.from_json_dict(data)


def test_genesis_must_be_the_published_table():
    # two buckets swapped keep the sum and cover every bucket once; logged
    # with the state hash they give, only the check can refuse them
    swapped = dict(lg.to_json_dict(lg.genesis())["event_log"][0]["inputs"]
                   ["allocations_kld"], TeamVesting=500_000_000,
                   CommunityAirdrop=2_500_000_000)
    with pytest.raises(AllocationMismatch):
        lg._check_genesis(None, {"allocations_kld": swapped}, ())
    events = [{"op": "genesis", "inputs": {"allocations_kld": swapped},
               "approvals": []}]
    with pytest.raises(MalformedFile, match=r"^event 0: AllocationMismatch: "):
        lg.from_json_dict(_rehashed(events))


def test_public_surface_has_no_unburn_or_mint_path():
    # every public callable that could create supply must be absent
    public = [name for name in dir(lg) if not name.startswith("_")]
    assert "unburn" not in public
    assert "reissue" not in public
    assert "mint" not in public


# --- vesting -----------------------------------------------------------------

def vesting(state):
    """The state's vesting section, as its state hash covers it."""
    return state.snapshot()["vesting"]


def month_13_state():
    state = fresh_cycle()
    new = state.clone()
    new.month_index = 12  # 12 months complete; month 13 in progress
    return new


def test_vest_month_13_amount():
    state, summary = lg.advance_month(month_13_state(), 0)
    # floor(2.5e15 / 36) base units = 69,444,444.444444 KLD
    assert summary["vested"] == 69_444_444_444_444
    assert vesting(state) == {"released_months": 1,
                              "released_total": summary["vested"],
                              "total": lg.VEST_TOTAL}
    assert state.circulating == summary["vested"] + summary["emitted"]


def test_vest_cliff_active():
    # months 1-12 are the cliff: month 12 vests nothing, month 13 vests
    state = fresh_cycle()
    state = state.clone()
    state.month_index = 11  # month 12 in progress
    state, summary = lg.advance_month(state, 0)
    assert summary["vested"] == 0
    assert vesting(state)["released_months"] == 0
    state, summary = lg.advance_month(state, 0)
    assert summary["vested"] > 0
    assert vesting(state)["released_months"] == 1


def test_vest_total_exact_telescoping():
    # independent oracle: 35 releases of floor(T/36), then the remainder
    total = 2_500_000_000 * lg.UNIT
    amounts = [total // 36] * 35 + [total - 35 * (total // 36)]
    assert sum(amounts) == total == lg.VEST_TOTAL
    assert all(a == amounts[0] for a in amounts[:-1])
    assert amounts[-1] >= amounts[0]

    state = month_13_state()
    vested = []
    for _ in range(36):
        state, summary = lg.advance_month(state, 0)
        vested.append(summary["vested"])
    assert vested == amounts
    assert vesting(state)["released_total"] == 2_500_000_000 * lg.UNIT
    assert state.buckets[BucketKind.TEAM_VESTING] == 0
    # months 49 on vest nothing
    for _ in range(3):
        state, summary = lg.advance_month(state, 0)
        assert summary["vested"] == 0
    assert vesting(state)["released_months"] == 36


def test_no_vesting_during_cliff_via_advance_month():
    state = fresh_cycle()
    for _ in range(12):
        state, summary = lg.advance_month(state, 0)
        assert summary["vested"] == 0
    assert vesting(state)["released_total"] == 0
    assert state.buckets[BucketKind.TEAM_VESTING] == lg.VEST_TOTAL


# --- escrow release ----------------------------------------------------------

def test_release_escrow_happy_path():
    state = fresh_cycle()
    cap = state.annual_factors.escrow_cap
    assert cap > 0
    state, released = lg.release_escrow(state, cap // 2, ESCROW_SIGNERS[:5])
    assert released == cap // 2
    assert state.circulating == released
    state.check_conservation()


def test_release_escrow_cap_clamp():
    state = fresh_cycle()
    cap = state.annual_factors.escrow_cap
    state, released = lg.release_escrow(state, cap + 10**12, ESCROW_SIGNERS[:5])
    assert released == cap
    with pytest.raises(ZeroCap):
        lg.release_escrow(state, 1, ESCROW_SIGNERS[:5])


def test_release_escrow_insufficient_approvals():
    state = fresh_cycle()
    before = state.state_hash()
    with pytest.raises(InsufficientApprovals):
        lg.release_escrow(state, 100, ESCROW_SIGNERS[:4])
    assert state.state_hash() == before


def test_release_escrow_unknown_signers_do_not_count():
    state = fresh_cycle()
    approvals = ESCROW_SIGNERS[:4] + ("intruder-1",)
    with pytest.raises(InsufficientApprovals):
        lg.release_escrow(state, 100, approvals)


def test_release_escrow_refuses_a_negative_request():
    with pytest.raises(ValueError, match="^requested must be nonnegative$"):
        lg.release_escrow(fresh_cycle(), -1, ESCROW_SIGNERS[:5])
    # a request of 0, as for a zero cap, releases nothing: ZeroCap
    with pytest.raises(ZeroCap, match=r"^release of 0 \(requested 0, "):
        lg.release_escrow(fresh_cycle(), 0, ESCROW_SIGNERS[:5])


@pytest.mark.parametrize("threshold, signers, error", [
    (0, ("a", "b"), "need 1 <= threshold <= |signer_set|"),
    (3, ("a", "b"), "need 1 <= threshold <= |signer_set|"),
    (1, ("a", "b", "a"), "duplicate signer in set"),
], ids=["zero-threshold", "threshold-above-signers", "duplicate-signer"])
def test_approval_policy_refuses_an_unmeetable_or_padded_set(threshold, signers, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        lg.ApprovalPolicy(threshold, signers)
    # a threshold of 1, and one of every signer, are both allowed
    assert lg.ApprovalPolicy(1, ("a",)).check(["a"], "act") == ("a",)


# --- burn --------------------------------------------------------------------

def burn_cycle(b_base="0.4", b_max="0.9"):
    """A cycle that burns a fixed fraction of the fee pool and emits nothing,
    with 1,000 base units released into circulation."""
    params = PolicyParams(r_base=0, b_base=fp.from_str(b_base),
                          b_max=fp.from_str(b_max), beta_b=0)
    state = fresh_cycle(params=params)
    state, _ = lg.release_escrow(state, 1000, ESCROW_SIGNERS[:5])
    return state


def test_burn_arithmetic():
    state, summary = lg.advance_month(burn_cycle(), 1000)
    assert summary["burned"] == 400
    assert state.burned_cumulative == 400
    assert state.circulating == 600


def test_burn_exceeds_pool():
    # at a burn fraction of 1 the month burns its whole fee pool, and the
    # pool is the fees, at most the circulating supply
    state, summary = lg.advance_month(burn_cycle("1", "1"), 1001)
    assert summary["burned"] == 1000
    assert state.circulating == 0
    state, summary = lg.advance_month(burn_cycle("1", "1"), 999)
    assert summary["burned"] == 999


def test_transitions_take_only_int_amounts():
    state = fresh_cycle()
    with pytest.raises(TypeError, match="requested must be int, not float"):
        lg.release_escrow(state, 500.0, ESCROW_SIGNERS[:5])
    with pytest.raises(TypeError, match="fees must be int, not bool"):
        lg.advance_month(state, True)
    with pytest.raises(TypeError, match="must be int, not float"):
        lg.advance_month(state, 1000.0)


def test_burn_monotone_over_random_stream():
    state = fresh_cycle()
    state, _ = lg.release_escrow(
        state, state.annual_factors.escrow_cap, ESCROW_SIGNERS[:5]
    )
    rng = random.Random(7)
    prev = state.burned_cumulative
    for _ in range(100):
        fees = rng.randint(0, 2 * state.circulating)
        circulating = state.circulating
        state, summary = lg.advance_month(state, fees)
        pool = min(fees, circulating + summary["vested"] + summary["emitted"])
        assert 0 <= summary["burned"] <= pool
        assert state.burned_cumulative == prev + summary["burned"]
        prev = state.burned_cumulative


# --- staking emission --------------------------------------------------------

def test_emit_staking_zero_rate():
    state = fresh_cycle(params=PolicyParams(r_base=0))
    reserve = state.buckets[BucketKind.STAKING_RESERVE]
    state, summary = lg.advance_month(state, 0)
    assert summary["emitted"] == 0
    assert state.buckets[BucketKind.STAKING_RESERVE] == reserve


def test_emit_staking_direct_multiply():
    params = PolicyParams(r_base=fp.from_str("0.001"))
    state = fresh_cycle(params=params)
    assert state.annual_factors.staking_rate == fp.from_str("0.001")
    reserve = state.buckets[BucketKind.STAKING_RESERVE]
    assert reserve == 300_000_000 * lg.UNIT
    after, summary = lg.advance_month(state, 0)
    assert summary["emitted"] == 300_000 * lg.UNIT
    assert after.buckets[BucketKind.STAKING_RESERVE] == reserve - summary["emitted"]
    assert after.issuance_used_year == summary["emitted"]
    # the year's issuance budget caps the emission
    capped = state.clone()
    capped.issuance_used_year = capped.annual_factors.issuance_budget - 5
    _, summary = lg.advance_month(capped, 0)
    assert summary["emitted"] == 5


def test_emit_staking_exhausted_reserve():
    state = fresh_cycle(params=PolicyParams(r_base=fp.from_str("0.5")))
    state = state.clone()
    drained = state.buckets[BucketKind.STAKING_RESERVE]
    state.buckets[BucketKind.STAKING_RESERVE] = 0
    state.circulating += drained  # keep conservation intact
    state, summary = lg.advance_month(state, 0)
    assert summary["emitted"] == 0


# --- lapsed cycle ------------------------------------------------------------

def test_carry_cycle_resets_the_year_and_keeps_balances():
    state = fresh_cycle()
    state, released = lg.release_escrow(state, 10**6, ESCROW_SIGNERS[:5])
    assert state.issuance_used_year == state.releases_this_month == released > 0
    before = copy.deepcopy(state)
    carried = lg.carry_cycle(state, 2027)
    assert state == before
    assert carried.event_log[:-1] == state.event_log
    assert [e["op"] for e in carried.event_log[state.n_events:]] == ["carry_cycle"]
    assert carried.issuance_used_year == carried.releases_this_month == 0
    assert carried.buckets == state.buckets
    assert (carried.circulating, carried.burned_cumulative) == \
        (state.circulating, state.burned_cumulative)
    assert carried.annual_factors is state.annual_factors


# --- cycle years -------------------------------------------------------------

_CYCLE_OPS = {
    "begin_cycle": lambda s, year: lg.begin_cycle(s, PolicyParams(), 0, year),
    "carry_cycle": lg.carry_cycle,
}


@pytest.mark.parametrize("year", [2027, 2026])
@pytest.mark.parametrize("op", sorted(_CYCLE_OPS))
def test_a_cycle_year_must_follow_the_last(op, year):
    # cycles for 2026 and 2027 are logged: 2027 repeats the last, 2026 is
    # before it, and either is refused with the state left as it was
    state = lg.carry_cycle(fresh_cycle(), 2027)
    before = copy.deepcopy(state)
    with pytest.raises(KladiaError, match=(
            f"^year {year} is already settled, or a later one is$")) as caught:
        _CYCLE_OPS[op](state, year)
    assert type(caught.value) is KladiaError
    assert state == before and len(state.journal) == state.n_events
    assert _CYCLE_OPS[op](state, 2028).event_log[-1]["inputs"]["year"] == 2028


@pytest.mark.parametrize("tamper, error", [
    (lambda inputs: inputs.update(year=2026), "KladiaError: year 2026 is already settled"),
    (lambda inputs: inputs.pop("year"), "KeyError: 'year'"),
], ids=["repeated-year", "no-year"])
def test_replay_refuses_a_cycle_year_that_does_not_follow(tamper, error):
    # the second cycle event, a carry_cycle for 2027, edited in the stored log
    state, _ = lg.advance_month(lg.carry_cycle(fresh_cycle(), 2027), 10 ** 9)
    data = json.loads(json.dumps(lg.to_json_dict(state)))
    tamper(data["event_log"][2]["inputs"])
    with pytest.raises(MalformedFile, match=f"^event 2: {error}"):
        lg.from_json_dict(data)


def test_begin_cycle_refuses_e_min_above_the_derived_e_base():
    # the check refuses the floor before anything is applied, live and on replay
    e_base = fresh_cycle().event_log[-1]["inputs"]["e_base"]
    state = lg.genesis()
    before = copy.deepcopy(state)
    request = {"year": 2026, "g": 0, "coefficients": [
        getattr(PolicyParams(e_min=e_base + 1), k) for k in lg._COEFFICIENTS]}
    with pytest.raises(ValueError, match="^need e_min <= e_base$"):
        lg._check_begin_cycle(state, request, ())
    with pytest.raises(ValueError, match="^need e_min <= e_base$"):
        lg.begin_cycle(state, PolicyParams(e_min=e_base + 1), 0, 2026)
    assert state == before and len(state.journal) == state.n_events

    data = lg.to_json_dict(lg.begin_cycle(state, PolicyParams(e_min=e_base), 0, 2026))
    data = json.loads(json.dumps(data))
    data["event_log"][1]["inputs"]["coefficients"][lg._COEFFICIENTS.index("e_min")] += 1
    with pytest.raises(MalformedFile, match="^event 1: ValueError: need e_min <= e_base$"):
        lg.from_json_dict(data)


@pytest.mark.parametrize("g", [fp.ONE, -1], ids=["one", "negative"])
def test_begin_cycle_refuses_g_outside_the_unit_interval(g):
    # the ledger's check is the one gate on g: the levers take it as given
    state = lg.genesis()
    with pytest.raises(ValueError, match=r"^g must be in \[0, 1\)$"):
        lg.begin_cycle(state, PolicyParams(), g, 2026)
    data = json.loads(json.dumps(lg.to_json_dict(fresh_cycle())))
    data["event_log"][1]["inputs"]["g"] = g
    with pytest.raises(MalformedFile,
                       match=r"^event 1: ValueError: g must be in \[0, 1\)$"):
        lg.from_json_dict(data)


# --- month transition --------------------------------------------------------

def test_advance_month_noop():
    params = PolicyParams(r_base=0, b_base=0, b_max=0, beta_b=0)
    state = lg.genesis()
    state = lg.begin_cycle(state, params, 0, 2026)
    before = state.snapshot()
    state, summary = lg.advance_month(state, 0)
    assert summary == {"vested": 0, "emitted": 0, "burned": 0}
    after = state.snapshot()
    changed = {k for k in before if before[k] != after[k]}
    assert changed == {"month_index"}


def test_advance_month_refuses_negative_fees():
    # the one sign check on the burn: negative fees would burn a negative
    # amount, adding to circulation with conservation intact
    with pytest.raises(ValueError, match="^fees must be nonnegative$"):
        lg.advance_month(burn_cycle(), -1)


def test_one_year_accumulation_matches_spreadsheet_oracle():
    params = PolicyParams(r_base=fp.from_str("0.001"),
                          b_base=fp.from_str("0.5"), beta_b=0)
    state = lg.genesis()
    state = lg.begin_cycle(state, params, 0, 2026)
    fees = 1_000_000  # constant monthly fee input

    # independent accumulation: replay the declared flows month by month
    exp_circ = 0
    exp_burn = 0
    exp_stake = 300_000_000 * lg.UNIT
    exp_dust = 0
    for _ in range(12):
        emitted = exp_stake // 1000          # rate 0.001, round down
        exp_stake -= emitted
        exp_circ += emitted
        pool = min(fees, exp_circ)
        raw = pool * fp.from_str("0.5")
        burned = raw // fp.SCALE
        exp_dust += raw % fp.SCALE
        burned += exp_dust // fp.SCALE
        exp_dust %= fp.SCALE
        burned = min(burned, pool)
        exp_circ -= burned
        exp_burn += burned

    for _ in range(12):
        state, _ = lg.advance_month(state, fees)
    assert state.circulating == exp_circ
    assert state.burned_cumulative == exp_burn
    assert state.buckets[BucketKind.STAKING_RESERVE] == exp_stake


def test_advance_month_atomic_abort_on_injected_violation(monkeypatch):
    state = fresh_cycle()
    before = copy.deepcopy(state)
    rule = lg._RULES["advance_month"]

    def corrupt_month(working, inputs):
        working = rule.apply(working, inputs)
        working.circulating += 12345  # break conservation mid-transition
        return working

    monkeypatch.setitem(lg._RULES, "advance_month", rule._replace(apply=corrupt_month))
    with pytest.raises(ConservationViolation):
        lg.advance_month(state, 10 ** 9)
    # nothing was logged, not even past this state's own history
    assert state == before
    assert len(state.journal) == state.n_events
    monkeypatch.undo()
    after, _ = lg.advance_month(state, 10 ** 9)
    fresh, _ = lg.advance_month(_reloaded(state), 10 ** 9)
    assert after.event_log == fresh.event_log


@pytest.mark.parametrize("negative", ["circulating", "bucket"])
def test_conservation_refuses_a_negative_balance_at_the_right_sum(negative):
    # one balance at -1 and another 1 higher, so the sum still holds
    state = lg.genesis().clone()
    state.check_conservation()
    if negative == "circulating":
        state.circulating = -1
        state.buckets[BucketKind.LEGAL_TREASURY] += 1
    else:
        state.circulating += state.buckets[BucketKind.LEGAL_TREASURY] + 1
        state.buckets[BucketKind.LEGAL_TREASURY] = -1
    with pytest.raises(ConservationViolation, match="^negative balance$"):
        state.check_conservation()


def test_conservation_over_randomized_months():
    rng = random.Random(99)
    params = PolicyParams(r_base=fp.from_str("0.002"))
    state = lg.genesis()
    g_values = ["0.0", "0.2", "0.5", "0.8"]
    for year in range(5):
        state = lg.begin_cycle(state, params, fp.from_str(rng.choice(g_values)),
                               2026 + year)
        for _ in range(12):
            if rng.random() < 0.5:
                try:
                    state, _ = lg.release_escrow(
                        state, rng.randint(1, 10**12), ESCROW_SIGNERS[:5]
                    )
                except ZeroCap:
                    pass
            state, _ = lg.advance_month(state, rng.randint(0, 10**10))
            assert (
                state.circulating + state.locked_total() + state.burned_cumulative
                == lg.S_MAX
            )


# --- serialization -----------------------------------------------------------

def test_state_round_trip():
    state = fresh_cycle("0.3")
    state, _ = lg.release_escrow(state, 500, ESCROW_SIGNERS[:5])
    state, _ = lg.advance_month(state, 10**9)
    data = lg.to_json_dict(state)
    restored = lg.from_json_dict(json.loads(json.dumps(data)))
    assert restored.state_hash() == state.state_hash()
    assert restored.annual_factors == state.annual_factors


def _stored_sections(data):
    """`data` with the derived sections a ledger.json once stored beside its
    event log (as `kld cycle` wrote them then) put back, for an edit of one
    of them; such a file is refused whatever its sections hold."""
    written = json.loads(LEDGER_WITH_DERIVED_SECTIONS.read_text())
    data.update((k, v) for k, v in written.items() if k != "event_log")
    return data


def _fold_legal_treasury(data):
    buckets = _stored_sections(data)["snapshot"]["buckets"]
    buckets["CompanyReserve"] += buckets.pop("LegalTreasury")


def _float_balance(data):
    buckets = _stored_sections(data)["snapshot"]["buckets"]
    buckets["EcosystemEscrow"] = float(buckets["EcosystemEscrow"])


def _string_month(data):
    snapshot = _stored_sections(data)["snapshot"]
    snapshot["month_index"] = str(snapshot["month_index"])


def _bool_counter(data):
    _stored_sections(data)["snapshot"]["releases_this_month"] = True


def _float_vesting(data):
    vesting = _stored_sections(data)["vesting"]
    vesting["released_total"] = float(vesting["released_total"])


def _float_factor(data):
    factors = _stored_sections(data)["annual_factors"]
    factors["escrow_cap"] = float(factors["escrow_cap"])


def _string_g_used(data):
    _stored_sections(data)["annual_factors"]["g_used"] = "0.300000000"


def _top_level_list(data):
    return []


def _snapshot_list(data):
    _stored_sections(data)["snapshot"] = []


def _vesting_list(data):
    _stored_sections(data)["vesting"] = []


def _policies_list(data):
    _stored_sections(data)["policies"] = []


def _string_threshold(data):
    _stored_sections(data)["policies"]["EcosystemEscrow"]["threshold"] = "5"


def _int_signer(data):
    _stored_sections(data)["policies"]["TeamVesting"]["signers"][0] = 7


def _factors_list(data):
    _stored_sections(data)["annual_factors"] = []


def _event_log_object(data):
    data["event_log"] = {}


def _event_index(data, op):
    return next(i for i, e in enumerate(data["event_log"]) if e["op"] == op)


def _raised_g(data):
    data["event_log"][_event_index(data, "begin_cycle")]["inputs"]["g"] += 10 ** 8


def _deleted_event(data):
    del data["event_log"][_event_index(data, "release_escrow")]


def _swapped_events(data):
    events = data["event_log"]
    i = _event_index(data, "release_escrow")
    events[i], events[i + 1] = events[i + 1], events[i]


def _release_over_cap(data):
    # logged with the state hash it would give, so only the check can tell
    before = fresh_cycle("0.3")
    over = before.annual_factors.escrow_cap + 1
    event = data["event_log"][_event_index(data, "release_escrow")]
    event["inputs"] = {"requested": over, "released": over}
    event["state_hash"] = lg._apply_release_escrow(before.clone(),
                                                   event["inputs"]).state_hash()


def _list_inputs(data):
    event = data["event_log"][_event_index(data, "begin_cycle")]
    event["inputs"] = list(event["inputs"].values())


def _rehashed(events):
    """A dump of `events` applied unchecked, each logged with the state hash
    it gives, so only the replay's checks can tell it from a live run."""
    state = None
    for event in events:
        state = lg._RULES[event["op"]].apply(state, event["inputs"])
        event["state_hash"] = state.state_hash()
    return json.loads(json.dumps(dict(lg.to_json_dict(state), event_log=events)))


def _float_requested(data):
    # the floats it gives every balance it touches are dumped to match
    event = data["event_log"][_event_index(data, "release_escrow")]
    event["inputs"] = {"requested": 500.0, "released": 500.0}
    return _rehashed(data["event_log"])


def _float_released(data):
    # 500.0 == 500, so the replayed event equals this one; only the byte
    # comparison of the whole dump tells them apart
    event = data["event_log"][_event_index(data, "release_escrow")]
    assert event["inputs"] == {"requested": 500, "released": 500}
    event["inputs"]["released"] = 500.0


def _bool_amount(data):
    # True == 1 passes every comparison and releases one unit, which dumps
    # back as `true`; only the check's type test refuses it
    event = data["event_log"][_event_index(data, "release_escrow")]
    event["inputs"] = {"requested": True, "released": True}
    return _rehashed(data["event_log"])


def _replay_base():
    """Genesis, a cycle at g = 0.3, one release and one month."""
    state = fresh_cycle("0.3")
    state, _ = lg.release_escrow(state, 500, ESCROW_SIGNERS[:5])
    state, _ = lg.advance_month(state, 10**9)
    return state


@pytest.mark.parametrize("tamper", [
    _fold_legal_treasury, _float_balance, _string_month, _bool_counter,
    _float_vesting, _float_factor, _string_g_used,
    _top_level_list, _snapshot_list, _vesting_list, _policies_list,
    _string_threshold, _int_signer, _factors_list, _event_log_object,
    _raised_g, _deleted_event, _swapped_events,
    _release_over_cap, _list_inputs, _float_requested, _float_released, _bool_amount,
])
def test_from_json_dict_rejects_unreplayable_state(tamper):
    state = _replay_base()
    data = json.loads(json.dumps(lg.to_json_dict(state)))
    assert lg.from_json_dict(data).state_hash() == state.state_hash()
    replaced = tamper(data)
    with pytest.raises(MalformedFile):
        lg.from_json_dict(data if replaced is None else replaced)


@pytest.mark.parametrize("section", [
    "snapshot", "policies", "vesting", "annual_factors",
    "reserve_month_start_balance", "relockable", "relock_log",
])
def test_from_json_dict_rejects_a_derived_section(section):
    # each section a ledger.json once stored beside its event log, as
    # `kld cycle` wrote it then; the log alone still loads
    written = json.loads(LEDGER_WITH_DERIVED_SECTIONS.read_text())
    data = {"event_log": written["event_log"]}
    lg.from_json_dict(data)
    data[section] = written[section]
    with pytest.raises(MalformedFile,
                       match="^ledger: not what its event log replays to$"):
        lg.from_json_dict(data)


def test_replay_refuses_an_unknown_op_and_an_empty_log():
    # an op with no rule in the table fails its lookup, named at its event:
    # "mint", and the company-reserve spend, the distribution mark and the
    # relock, which the ledger no longer has, so a log of one is refused
    events = json.loads(json.dumps(lg.to_json_dict(fresh_cycle())))["event_log"]
    for op in ("mint", "spend_reserve", "mark_distributed", "relock"):
        events[1]["op"] = op
        with pytest.raises(MalformedFile, match=rf"^event 1: KeyError: '{op}'$"):
            lg.replay(events)
    with pytest.raises(MalformedFile,
                       match=r"^event_log: genesis must open the log, once$"):
        lg.replay([])


def test_replay_refuses_a_second_genesis():
    events = json.loads(json.dumps(lg.to_json_dict(fresh_cycle())))["event_log"]
    with pytest.raises(MalformedFile,
                       match=r"^event 2: genesis must open the log, once$"):
        lg.replay(events + events[:1])


def test_replay_rejects_a_release_over_its_cap_at_its_own_event():
    data = json.loads(json.dumps(lg.to_json_dict(_replay_base())))
    _release_over_cap(data)
    with pytest.raises(MalformedFile,
                       match=r"^event 2 \(release_escrow\): not what its replay logs$"):
        lg.from_json_dict(data)


def _past_cliff():
    """Genesis, a cycle at g = 0.3 and 13 months, the last one vesting."""
    state = fresh_cycle("0.3")
    for _ in range(13):
        state, _ = lg.advance_month(state, 10**9)
    return state


def _month_edit(name, field, change):
    """A tamper that sets `field` of the last month's event to `change` of it."""
    def edit(events):
        month = events[-1]
        assert month["op"] == "advance_month" and month["inputs"][field] > 0
        month["inputs"][field] = change(month["inputs"][field])
    edit.__name__ = name
    return edit


@pytest.mark.parametrize("base, tamper", [
    (_replay_base, _month_edit("_dropped_burn", "burned", lambda v: 0)),
    (_replay_base, _month_edit("_smaller_burn", "burned", lambda v: v - 1)),
    (_replay_base, _month_edit("_emission_at_another_rate", "emitted", lambda v: v // 2)),
    (_replay_base, _month_edit("_dropped_emission", "emitted", lambda v: 0)),
    (_past_cliff, _month_edit("_dropped_vesting", "vested", lambda v: 0)),
    (_past_cliff, _month_edit("_larger_vesting", "vested", lambda v: v + 1)),
    (_replay_base, _month_edit("_raised_fees", "fees", lambda v: v + 10 ** 6)),
], ids=lambda f: f.__name__)
def test_replay_checks_each_month_event(base, tamper):
    # every state hash is recomputed by applying the edited events unchecked,
    # so only the replay's own check of the month can tell
    events = json.loads(json.dumps(base().event_log))
    tamper(events)
    with pytest.raises(MalformedFile, match="not what its replay logs"):
        lg.from_json_dict(_rehashed(events))


def test_round_trip_replays_governed_coefficients():
    # a governed coefficient changes before every cycle; the replay derives
    # each year's factors from the coefficients its begin_cycle logged, so
    # a reload matches only if those are the ones the live call used
    state = lg.genesis()
    params = PolicyParams()
    changes = [{}, {"gamma": fp.from_str("0.3")}, {"b_max": fp.from_str("0.8")},
               {"r_base": fp.from_str("0.002")},
               {"staking_multiplier": fp.from_str("1.5"), "alpha_e": 0}]
    for year, change in enumerate(changes):
        params = replace(params, **change)
        state = lg.begin_cycle(state, params, fp.from_str(f"0.{year + 2}"),
                               2026 + year)
        event = state.event_log[-1]
        logged = PolicyParams(*event["inputs"]["coefficients"])
        assert {k: getattr(logged, k) for k in change} == change
        if change:
            default = lg.begin_cycle(state, PolicyParams(), event["inputs"]["g"],
                                     2027 + year)
            assert default.annual_factors != state.annual_factors
        for month in range(12):
            state, _ = lg.release_escrow(
                state, state.annual_factors.escrow_cap // 2, ESCROW_SIGNERS[:5])
            state, _ = lg.advance_month(state, (month + 1) * 10 ** 12)
    reloaded = _reloaded(state)
    assert reloaded == state
    assert reloaded.state_hash() == state.state_hash()


# --- shared journal ----------------------------------------------------------

_BRANCH_STEPS = {
    "month": lambda s: lg.advance_month(s, 400)[0],
    "release": lambda s: lg.release_escrow(s, 500, ESCROW_SIGNERS[:5])[0],
}


@pytest.mark.parametrize("order", [("month", "release"), ("release", "month")])
def test_branches_of_one_parent_keep_their_own_events(order):
    parent = fresh_cycle()
    parent, _ = lg.release_escrow(parent, 1000, ESCROW_SIGNERS[:5])
    assert parent.clone().journal is parent.journal
    before = copy.deepcopy(parent.event_log)
    expected = {name: step(_reloaded(parent)).event_log
                for name, step in _BRANCH_STEPS.items()}
    branches = {name: _BRANCH_STEPS[name](parent) for name in order}
    for name, branch in branches.items():
        assert branch.event_log == expected[name]
        assert len(branch.event_log) == len(before) + 1
    assert parent.event_log == before
    # the branches' events sit past the parent's length in a shared journal
    assert _reloaded(parent) == parent


def test_only_a_branch_behind_the_journals_end_copies_it():
    # a state at the journal's end appends in place, so a run of transitions
    # copies no history; a second branch from the same parent forks a copy
    parent = fresh_cycle()
    first, _ = lg.release_escrow(parent, 500, ESCROW_SIGNERS[:5])
    second, _ = lg.release_escrow(parent, 700, ESCROW_SIGNERS[:5])
    assert first.journal is parent.journal
    assert second.journal is not parent.journal
    assert first.event_log[:-1] == second.event_log[:-1] == parent.event_log
    assert [e["inputs"]["requested"] for e in (first.event_log[-1],
                                               second.event_log[-1])] == [500, 700]


# --- state hash template -----------------------------------------------------

_AMOUNT = st.integers(0, 2**64)


@st.composite
def ledger_states(draw):
    kinds = draw(st.permutations(list(BucketKind)))
    g_used = draw(st.none() | st.integers(-2**64, 2**64))
    factors = None
    if draw(st.booleans()):
        factors = PolicyFactors(*draw(st.tuples(*[_AMOUNT] * 4)), g_used=g_used)
    return lg.LedgerState(
        circulating=draw(_AMOUNT),
        buckets={k: draw(_AMOUNT) for k in kinds},
        burned_cumulative=draw(_AMOUNT),
        month_index=draw(_AMOUNT),
        annual_factors=factors,
        releases_this_month=draw(_AMOUNT),
        burn_dust=draw(st.integers(-2**64, 2**64)),
        issuance_used_year=draw(_AMOUNT),
    )


@settings(max_examples=300)
@given(ledger_states())
def test_state_hash_template_matches_generic_encoder(state):
    assert state.state_hash() == content_hash(state.snapshot())


_STEPS = {
    # a state's event count is after every year its cycles have logged
    "begin_cycle": lambda s, n: lg.begin_cycle(s, PolicyParams(), n % fp.ONE,
                                               s.n_events),
    "release_escrow": lambda s, n: lg.release_escrow(s, n, ESCROW_SIGNERS[:5])[0],
    "advance_month": lambda s, n: lg.advance_month(s, n)[0],
}


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(sorted(_STEPS)), st.integers(0, 10**14),
              st.integers(0, 3)),
    max_size=40,
))
def test_state_hash_template_matches_after_each_transition(steps):
    # each step starts from the newest state or one up to three before it,
    # so states branch from shared history
    state = lg.genesis()
    assert state.state_hash() == content_hash(state.snapshot())
    kept = [(state, copy.deepcopy(state.event_log))]
    for name, amount, back in steps:
        source, source_log = kept[max(0, len(kept) - 1 - back)]
        try:
            state = _STEPS[name](source, amount)
        except (KladiaError, ValueError):
            continue
        assert state.state_hash() == content_hash(state.snapshot())
        assert state.event_log[-1]["state_hash"] == state.state_hash()
        assert state.event_log[:len(source_log)] == source_log
        kept.append((state, copy.deepcopy(state.event_log)))
    for state, log in kept:
        assert state.event_log == log


def _months(state, n):
    """`state` after `n` fee-free months."""
    for _ in range(n):
        state, _ = lg.advance_month(state, 0)
    return state


_VESTING_STEPS = dict(_STEPS, year=lambda s, n: _months(s, 12))


def _stored_vesting(months, released, start, end):
    """A vesting schedule stored the way it used to be, carried from month
    index `start` to `end`: past the 12-month cliff each month counts one
    release and adds floor(T/36), until the 36th adds the remainder instead."""
    total = 2_500_000_000 * lg.UNIT
    for month in range(start, end):
        if month >= 12 and months < 36:
            months += 1
            released += total // 36 if months < 36 else total - 35 * (total // 36)
    return months, released


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.lists(
    st.tuples(st.sampled_from(sorted(_VESTING_STEPS)), st.integers(0, 10**14),
              st.integers(0, 3)),
    max_size=40,
))
def test_vesting_matches_a_stored_schedule(start, steps):
    # from `start` months into the first cycle, each step starts from the
    # newest state or one up to three before it, so states branch
    state = _months(fresh_cycle(), start)
    kept = [(state, *_stored_vesting(0, 0, 0, start))]
    for name, amount, back in steps:
        source, months, released = kept[max(0, len(kept) - 1 - back)]
        try:
            state = _VESTING_STEPS[name](source, amount)
        except (KladiaError, ValueError):
            continue
        months, released = _stored_vesting(months, released, source.month_index,
                                           state.month_index)
        assert state.snapshot()["vesting"] == {
            "released_months": months, "released_total": released,
            "total": 2_500_000_000 * lg.UNIT}
        assert state.buckets[BucketKind.TEAM_VESTING] == lg.VEST_TOTAL - released
        kept.append((state, months, released))


@st.composite
def governed_params(draw):
    """Every governed coefficient within its bound, b_max at least b_base."""
    values = {name: draw(st.integers(lo, hi))
              for name, (lo, hi) in gov.DEFAULT_BOUNDS.items()}
    values["b_max"] = max(values["b_max"], PolicyParams().b_base)
    return PolicyParams(**values)


def _circulating_by_month(params, g, fees):
    """Circulating supply after each month of len(fees) // 12 years at `g`,
    each month releasing escrow at its cap before it advances."""
    state, circulating = lg.genesis(), []
    for month, fee in enumerate(fees):
        if month % 12 == 0:
            state = lg.begin_cycle(state, params, g, 2026 + month // 12)
        try:
            state, _ = lg.release_escrow(state, state.annual_factors.escrow_cap,
                                         ESCROW_SIGNERS[:5])
        except ZeroCap:
            pass
        state, _ = lg.advance_month(state, fee)
        circulating.append(state.circulating)
    return circulating


@settings(max_examples=60, deadline=None)
@given(governed_params(), st.integers(0, fp.ONE - 2),
       st.one_of(st.just(1), st.integers(1, fp.ONE)),
       st.lists(st.integers(0, 10**14), min_size=48, max_size=48))
def test_circulating_supply_falls_as_g_rises(params, g1, gap, fees):
    # the paper's headline claim, over four years of the levers meeting the
    # month order, the cap, the budget, the burn dust and the floors; it is
    # not claimed for the tokens burned, which a smaller fee pool can lower
    g2 = min(g1 + gap, fp.ONE - 1)
    lower = _circulating_by_month(params, g1, fees)
    higher = _circulating_by_month(params, g2, fees)
    assert all(h <= lo for h, lo in zip(higher, lower))


@settings(max_examples=200)
@given(ledger_states())
def test_clone_is_an_equal_copy_of_the_mutable_parts(state):
    copy = state.clone()
    assert copy == state and copy.state_hash() == state.state_hash()
    assert vars(copy).keys() == vars(state).keys()
    assert copy.buckets is not state.buckets
    copy.buckets[BucketKind.TEAM_VESTING] += 1
    assert copy != state and state == state.clone()
