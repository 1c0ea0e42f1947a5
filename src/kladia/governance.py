"""Parameter-governance lifecycle.

Proposals may touch only governable coefficients, within published
bounds; constitutional elements are rejected at proposal time. Voting is
token-weighted against a balance snapshot, with quorum computed over the
eligible supply only (treasury, escrow, and unvested team balances carry
zero power). Approved changes queue behind a 48-hour timelock and take
effect at the next annual factor derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from enum import Enum
from typing import Mapping, Optional

from . import fixedpoint as fp
from .errors import (
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
from .policy import PolicyParams

VOTING_PERIOD = timedelta(days=7)
TIMELOCK = timedelta(hours=48)
QUORUM_FRACTION = fp.from_str("0.05")  # of eligible supply

# Constitutional elements: any proposal naming one is rejected outright.
IMMUTABLE_PARAMETERS = frozenset(
    {
        "s_max",
        "bdi_ref",
        "debt_index_definition",
        "kc7_bloc_list",
        "data_source",
        "update_cadence",
        "revision_rule",
        "mint_disablement",
        "burn_irreversibility",
        "multisig_requirement",
        "lambda",  # genesis-fixed sensitivity; not in the governable list
    }
)

# Governable coefficients and their published allowable ranges.
DEFAULT_BOUNDS: dict[str, tuple[int, int]] = {
    "alpha_i": (0, fp.from_str("0.05")),
    "beta_b": (0, fp.from_str("2")),
    "alpha_e": (0, fp.ONE),
    "gamma": (0, fp.from_str("2")),
    "b_max": (0, fp.ONE),
    "staking_multiplier": (0, fp.from_str("2")),
}
# A proposer must hold this fraction of the eligible supply.
MIN_PROPOSER_STAKE_FRACTION = fp.from_str("0.001")


class ProposalStatus(Enum):
    VOTING = "Voting"
    REJECTED = "Rejected"
    QUEUED = "Queued"
    EXECUTED = "Executed"


class VoteDirection(Enum):
    YES = "yes"
    NO = "no"


@dataclass(frozen=True)
class VotingPowerView:
    """Eligible balance per identity at a snapshot position.

    Builders must already have zeroed treasury/escrow and unvested team
    balances, and a negative one is refused; eligible_supply is the quorum
    denominator."""

    balances: Mapping[str, int]
    snapshot_position: int

    def __post_init__(self):
        if any(balance < 0 for balance in self.balances.values()):
            raise ValueError("balances must be nonnegative")

    @property
    def eligible_supply(self) -> int:
        return sum(self.balances.values())

    def power(self, identity: str) -> int:
        return self.balances.get(identity, 0)


@dataclass
class Proposal:
    id: str
    proposer: str
    changes: dict[str, int]
    snapshot: VotingPowerView
    created_at: datetime
    voting_ends: datetime
    status: ProposalStatus = ProposalStatus.VOTING
    votes: dict[str, tuple[VoteDirection, int]] = field(default_factory=dict)
    timelock_ends: Optional[datetime] = None


@dataclass
class GovernanceRegistry:
    """Single-writer proposal registry; one live proposal per parameter."""

    proposals: dict[str, Proposal] = field(default_factory=dict)
    _seq: int = 0

    def live_parameters(self) -> set[str]:
        live = set()
        for p in self.proposals.values():
            if p.status in (ProposalStatus.VOTING, ProposalStatus.QUEUED):
                live.update(p.changes)
        return live


def check_changes(changes: Mapping[str, int]) -> None:
    """Refuse an empty change set, a constitutional or unknown parameter,
    and a value outside its published bounds."""
    if not changes:
        raise OutOfBounds("empty change set")
    for name, value in changes.items():
        if name in IMMUTABLE_PARAMETERS:
            raise InvalidImmutable(f"{name} is constitutional and not governable")
        if name not in DEFAULT_BOUNDS:
            raise InvalidImmutable(f"{name} is not a governable parameter")
        lo, hi = DEFAULT_BOUNDS[name]
        if not (lo <= value <= hi):
            raise OutOfBounds(
                f"{name}={fp.to_str(value)} outside [{fp.to_str(lo)}, {fp.to_str(hi)}]"
            )


def propose(
    registry: GovernanceRegistry,
    proposer: str,
    proposer_stake: int,
    changes: Mapping[str, int],
    snapshot: VotingPowerView,
    now: datetime,
) -> Proposal:
    """Create a proposal after the stake check and `check_changes`."""
    min_stake = fp.scale_amount_down(
        snapshot.eligible_supply, MIN_PROPOSER_STAKE_FRACTION
    )
    if proposer_stake < min_stake:
        raise InsufficientStake(
            f"stake {proposer_stake} below minimum {min_stake}"
        )
    check_changes(changes)
    conflict = set(changes) & registry.live_parameters()
    if conflict:
        raise ProposalConflict(f"live proposal already touches {sorted(conflict)}")
    registry._seq += 1
    proposal = Proposal(
        id=f"prop-{registry._seq}",
        proposer=proposer,
        changes=dict(changes),
        snapshot=snapshot,
        created_at=now,
        voting_ends=now + VOTING_PERIOD,
    )
    registry.proposals[proposal.id] = proposal
    return proposal


def vote(
    proposal: Proposal, voter: str, direction: VoteDirection, now: datetime
) -> Proposal:
    """Tally a vote by snapshot weight; revoting replaces the prior vote."""
    if proposal.status is not ProposalStatus.VOTING or now >= proposal.voting_ends:
        raise VotingClosed(proposal.id)
    weight = proposal.snapshot.power(voter)
    if weight <= 0:
        raise ZeroPower(f"{voter} has no eligible power at the snapshot")
    proposal.votes[voter] = (direction, weight)
    return proposal


def tally(proposal: Proposal) -> tuple[int, int]:
    yes = sum(w for d, w in proposal.votes.values() if d is VoteDirection.YES)
    no = sum(w for d, w in proposal.votes.values() if d is VoteDirection.NO)
    return yes, no


def quorum_met(proposal: Proposal) -> bool:
    yes, no = tally(proposal)
    required = fp.scale_amount_down(
        proposal.snapshot.eligible_supply, QUORUM_FRACTION
    )
    return yes + no >= required


def finalize(proposal: Proposal, now: datetime) -> Proposal:
    """Close voting: quorum plus strict majority queues behind the timelock."""
    if proposal.status is not ProposalStatus.VOTING:
        raise AlreadyFinalized(proposal.id)
    if now < proposal.voting_ends:
        raise VotingClosed(f"{proposal.id}: voting still open")
    yes, no = tally(proposal)
    if quorum_met(proposal) and yes > no:
        proposal.status = ProposalStatus.QUEUED
        proposal.timelock_ends = now + TIMELOCK
    else:
        proposal.status = ProposalStatus.REJECTED
    return proposal


def execute_proposal(
    proposal: Proposal, params: PolicyParams, now: datetime
) -> PolicyParams:
    """Apply a queued proposal after its timelock.

    The returned params take effect at the next annual cycle's factor
    derivation; mid-year factors are never recomputed.
    """
    if proposal.status is not ProposalStatus.QUEUED:
        raise NotQueued(f"{proposal.id} is {proposal.status.value}")
    assert proposal.timelock_ends is not None
    if now < proposal.timelock_ends:
        raise TimelockActive(
            f"{proposal.id}: timelock ends {proposal.timelock_ends.isoformat()}"
        )
    proposal.status = ProposalStatus.EXECUTED
    return replace(params, **proposal.changes)
