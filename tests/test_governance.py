from datetime import datetime, timedelta, timezone

import pytest

from kladia import fixedpoint as fp
from kladia import governance as gov
from kladia.errors import (
    AlreadyFinalized,
    InsufficientStake,
    InvalidImmutable,
    NotQueued,
    OutOfBounds,
    ProposalConflict,
    TimelockActive,
    VotingClosed,
    ZeroPower,
)
from kladia.policy import PolicyParams

T0 = datetime(2026, 3, 1, tzinfo=timezone.utc)
SUPPLY = 1_000_000 * 10**6  # eligible base units across holders


def snapshot(balances=None):
    balances = balances or {"alice": SUPPLY // 2, "bob": SUPPLY // 2}
    return gov.VotingPowerView(balances, snapshot_position=0)


def registry():
    return gov.GovernanceRegistry()


def make_proposal(reg=None, changes=None, snap=None):
    reg = reg or registry()
    snap = snap or snapshot()
    changes = changes or {"alpha_i": fp.from_str("0.03")}
    return reg, gov.propose(reg, "alice", snap.eligible_supply, changes, snap, T0)


# --- propose -----------------------------------------------------------------

def test_propose_within_bounds():
    _, proposal = make_proposal()
    assert proposal.status is gov.ProposalStatus.VOTING
    assert proposal.voting_ends == T0 + timedelta(days=7)


def test_every_constitutional_parameter_rejected():
    reg = registry()
    snap = snapshot()
    for name in sorted(gov.IMMUTABLE_PARAMETERS):
        with pytest.raises(InvalidImmutable):
            gov.propose(reg, "alice", snap.eligible_supply, {name: 1}, snap, T0)


def test_lambda_is_refused_as_constitutional():
    # lambda is also absent from the bounds table, which raises the same
    # class with another message
    with pytest.raises(InvalidImmutable, match="constitutional"):
        gov.check_changes({"lambda": fp.ONE})


def test_bounds_are_inclusive():
    lo, hi = gov.DEFAULT_BOUNDS["alpha_i"]
    gov.check_changes({"alpha_i": lo})
    gov.check_changes({"alpha_i": hi})


def test_unknown_parameter_rejected():
    reg = registry()
    snap = snapshot()
    with pytest.raises(InvalidImmutable):
        gov.propose(reg, "alice", snap.eligible_supply,
                    {"mystery_knob": 1}, snap, T0)


def test_out_of_bounds_rejected():
    reg = registry()
    snap = snapshot()
    with pytest.raises(OutOfBounds):
        gov.propose(reg, "alice", snap.eligible_supply,
                    {"b_max": fp.from_str("1.5")}, snap, T0)
    with pytest.raises(OutOfBounds):
        gov.propose(reg, "alice", snap.eligible_supply,
                    {"alpha_i": fp.from_str("0.06")}, snap, T0)  # > 0.05 bound


def test_a_stake_of_exactly_the_minimum_may_propose():
    snap = snapshot()
    minimum = fp.scale_amount_down(snap.eligible_supply,
                                   gov.MIN_PROPOSER_STAKE_FRACTION)
    proposal = gov.propose(registry(), "alice", minimum, {"alpha_i": 1}, snap, T0)
    assert proposal.status is gov.ProposalStatus.VOTING


def test_insufficient_stake():
    reg = registry()
    snap = snapshot()
    with pytest.raises(InsufficientStake):
        gov.propose(reg, "alice", 0, {"alpha_i": 1}, snap, T0)


def test_one_live_proposal_per_parameter():
    reg, _ = make_proposal()
    snap = snapshot()
    with pytest.raises(ProposalConflict):
        gov.propose(reg, "bob", snap.eligible_supply,
                    {"alpha_i": fp.from_str("0.01")}, snap, T0)


# --- vote --------------------------------------------------------------------

def test_vote_tallies_snapshot_weight():
    _, proposal = make_proposal()
    gov.vote(proposal, "alice", gov.VoteDirection.YES, T0 + timedelta(days=1))
    yes, no = gov.tally(proposal)
    assert yes == SUPPLY // 2
    assert no == 0


def test_zero_power_voter_rejected():
    _, proposal = make_proposal()
    with pytest.raises(ZeroPower):
        gov.vote(proposal, "unvested-team-wallet", gov.VoteDirection.YES,
                 T0 + timedelta(days=1))


def test_balance_acquired_after_snapshot_counts_zero():
    # snapshot semantics: the view is fixed at proposal creation; later
    # transfers can never alter a tally
    snap = snapshot({"alice": SUPPLY, "carol": 0})
    reg = registry()
    proposal = gov.propose(reg, "alice", SUPPLY, {"alpha_i": 1}, snap, T0)
    with pytest.raises(ZeroPower):
        gov.vote(proposal, "carol", gov.VoteDirection.YES, T0 + timedelta(days=1))


def test_revote_replaces():
    _, proposal = make_proposal()
    gov.vote(proposal, "alice", gov.VoteDirection.YES, T0 + timedelta(days=1))
    gov.vote(proposal, "alice", gov.VoteDirection.NO, T0 + timedelta(days=2))
    yes, no = gov.tally(proposal)
    assert yes == 0 and no == SUPPLY // 2


def test_vote_after_close_rejected():
    _, proposal = make_proposal()
    with pytest.raises(VotingClosed):
        gov.vote(proposal, "alice", gov.VoteDirection.YES, T0 + timedelta(days=8))


def test_vote_at_the_close_rejected():
    _, proposal = make_proposal()
    with pytest.raises(VotingClosed):
        gov.vote(proposal, "alice", gov.VoteDirection.YES, proposal.voting_ends)


# --- finalize ----------------------------------------------------------------

def balances_with_participation(participation_pct, yes_share_pct):
    """100 holders of equal weight; a given % vote, split yes/no."""
    holders = {f"h{i}": SUPPLY // 100 for i in range(100)}
    return holders


def run_vote(participation, yes_count):
    snap = snapshot(balances_with_participation(0, 0))
    reg = registry()
    proposal = gov.propose(reg, "h0", snap.eligible_supply,
                           {"alpha_i": fp.from_str("0.02")}, snap, T0)
    for i in range(participation):
        direction = gov.VoteDirection.YES if i < yes_count else gov.VoteDirection.NO
        gov.vote(proposal, f"h{i}", direction, T0 + timedelta(days=1))
    return gov.finalize(proposal, T0 + timedelta(days=7))


def test_finalize_queued_above_quorum_and_majority():
    # 6 of 100 equal holders vote (6% participation), 4 yes vs 2 no
    proposal = run_vote(participation=6, yes_count=4)
    assert proposal.status is gov.ProposalStatus.QUEUED
    assert proposal.timelock_ends == T0 + timedelta(days=7) + timedelta(hours=48)


def test_finalize_rejected_below_quorum():
    proposal = run_vote(participation=4, yes_count=4)
    assert proposal.status is gov.ProposalStatus.REJECTED


def test_finalize_tie_rejected():
    proposal = run_vote(participation=10, yes_count=5)
    assert proposal.status is gov.ProposalStatus.REJECTED


def test_finalize_before_close_rejected():
    _, proposal = make_proposal()
    with pytest.raises(VotingClosed):
        gov.finalize(proposal, T0 + timedelta(days=6))


def test_finalize_twice_rejected():
    proposal = run_vote(participation=6, yes_count=6)
    with pytest.raises(AlreadyFinalized):
        gov.finalize(proposal, T0 + timedelta(days=8))


def test_votes_of_exactly_the_quorum_meet_it():
    required = fp.scale_amount_down(SUPPLY, gov.QUORUM_FRACTION)
    _, proposal = make_proposal(
        snap=snapshot({"alice": required, "bob": SUPPLY - required}))
    gov.vote(proposal, "alice", gov.VoteDirection.YES, T0 + timedelta(days=1))
    assert gov.quorum_met(proposal)


def test_voting_power_view_refuses_a_negative_balance():
    # the one sign check on a vote snapshot: quorum and stake floors check none
    gov.VotingPowerView({"alice": 0}, snapshot_position=0)
    with pytest.raises(ValueError, match="^balances must be nonnegative$"):
        gov.VotingPowerView({"alice": SUPPLY, "bob": -1}, snapshot_position=0)


def test_quorum_uses_eligible_supply_only():
    # treasury + unvested hold 90% of raw supply but are excluded from the
    # view; 5% of the remaining 10% reaches quorum
    raw_supply = 10_000_000 * 10**6
    eligible = raw_supply // 10
    holders = {f"e{i}": eligible // 100 for i in range(100)}
    snap = gov.VotingPowerView(holders, 0)
    assert snap.eligible_supply == eligible
    reg = registry()
    proposal = gov.propose(reg, "e0", eligible, {"alpha_i": 1}, snap, T0)
    for i in range(6):  # 6% of eligible, far below 5% of raw supply
        gov.vote(proposal, f"e{i}", gov.VoteDirection.YES, T0 + timedelta(days=1))
    yes, no = gov.tally(proposal)
    assert yes + no < fp.scale_amount_down(raw_supply, gov.QUORUM_FRACTION)
    proposal = gov.finalize(proposal, T0 + timedelta(days=7))
    assert proposal.status is gov.ProposalStatus.QUEUED


# --- execute -----------------------------------------------------------------

def test_execute_after_timelock():
    proposal = run_vote(participation=6, yes_count=6)
    params = PolicyParams()
    updated = gov.execute_proposal(
        proposal, params, proposal.timelock_ends + timedelta(seconds=1)
    )
    assert updated.alpha_i == fp.from_str("0.02")
    assert proposal.status is gov.ProposalStatus.EXECUTED


def test_execute_at_the_end_of_the_timelock():
    proposal = run_vote(participation=6, yes_count=6)
    gov.execute_proposal(proposal, PolicyParams(), proposal.timelock_ends)
    assert proposal.status is gov.ProposalStatus.EXECUTED


def test_execute_during_timelock_rejected():
    proposal = run_vote(participation=6, yes_count=6)
    with pytest.raises(TimelockActive):
        gov.execute_proposal(proposal, PolicyParams(),
                             proposal.timelock_ends - timedelta(seconds=1))


def test_execute_unqueued_rejected():
    proposal = run_vote(participation=4, yes_count=4)  # rejected
    with pytest.raises(NotQueued):
        gov.execute_proposal(proposal, PolicyParams(), T0 + timedelta(days=30))


def test_changes_only_visible_at_next_factor_derivation():
    from kladia import ledger as lg

    proposal = run_vote(participation=6, yes_count=6)
    params = PolicyParams()
    state = lg.genesis()
    state = lg.begin_cycle(state, params, fp.from_str("0.4"), 2026)
    factors_before = state.annual_factors

    updated = gov.execute_proposal(
        proposal, params, proposal.timelock_ends + timedelta(seconds=1)
    )
    # mid-year: ledger factors untouched by the parameter change
    assert state.annual_factors == factors_before
    # next cycle derivation picks the new value up
    state = lg.begin_cycle(state, updated, fp.from_str("0.4"), 2027)
    logged = PolicyParams(*state.event_log[-1]["inputs"]["coefficients"])
    assert logged.alpha_i == fp.from_str("0.02")
    assert state.annual_factors != factors_before
