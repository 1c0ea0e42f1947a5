"""Exact-integer supply state machine.

All balances are integer base units (1 KLD = 10^6 units). Every transition
operates on a private copy, re-checks supply conservation, and either
returns the new state or raises with the prior state untouched. There is
no mint operation and no inverse of burn anywhere on the public surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional

from . import fixedpoint as fp
from .canonical import content_hash, sha256_hex
from .errors import (
    AllocationMismatch,
    CliffActive,
    ConservationViolation,
    CrossBucketRelock,
    InsufficientApprovals,
    InsufficientFeePool,
    MalformedFile,
    NoMintAfterGenesis,
    RelockExceedsRelease,
    VestingComplete,
    ZeroCap,
)
from .policy import PolicyFactors, PolicyParams, derive_cycle_factors

ASSET_SCALE = 6
UNIT = 10 ** ASSET_SCALE            # base units per KLD
S_MAX_KLD = 10_000_000_000
S_MAX = S_MAX_KLD * UNIT            # 10^16 base units

# Escrow base annual release budget: up to 5% of the escrow balance.
ESCROW_ANNUAL_BUDGET_FRACTION = fp.from_str("0.05")
# Company reserve self-imposed monthly spending guideline: 1% of the reserve.
RESERVE_MONTHLY_GUIDELINE = fp.from_str("0.01")


class BucketKind(Enum):
    ECOSYSTEM_ESCROW = "EcosystemEscrow"
    TEAM_VESTING = "TeamVesting"
    COMPANY_RESERVE = "CompanyReserve"
    COMMUNITY_AIRDROP = "CommunityAirdrop"
    STAKING_RESERVE = "StakingReserve"
    LIQUIDITY_PARTNERSHIPS = "LiquidityPartnerships"
    LEGAL_TREASURY = "LegalTreasury"

    # safe: members are identity-compared singletons, hash(str) is already
    # randomized per process, and dicts iterate in insertion order
    __hash__ = object.__hash__


# `snapshot()` as canonical JSON: keys and bucket names sorted, ints as %d,
# `g_used` as `null` or an int. tests/test_ledger.py pins it against
# canonical.content_hash(state.snapshot()).
_BUCKETS_BY_NAME = tuple(sorted(BucketKind, key=lambda k: k.value))
_bucket_balances = itemgetter(*_BUCKETS_BY_NAME)
_SNAPSHOT_TEMPLATE = (
    '{"buckets":{'
    + ",".join(f'"{k.value}":%d' for k in _BUCKETS_BY_NAME)
    + '},"burn_dust":%d,"burned_cumulative":%d,"circulating":%d,"g_used":%s,'
    '"issuance_used_year":%d,"month_index":%d,"releases_this_month":%d,'
    '"reserve_spend_this_month":%d,"s_max":%d,'
    '"vesting":{"released_months":%d,"released_total":%d,"total":%d}}'
)


GENESIS_ALLOCATIONS_KLD: dict[BucketKind, int] = {
    BucketKind.ECOSYSTEM_ESCROW: 5_500_000_000,
    BucketKind.TEAM_VESTING: 2_500_000_000,
    BucketKind.COMPANY_RESERVE: 1_000_000_000,
    BucketKind.COMMUNITY_AIRDROP: 500_000_000,
    BucketKind.STAKING_RESERVE: 300_000_000,
    BucketKind.LIQUIDITY_PARTNERSHIPS: 150_000_000,
    BucketKind.LEGAL_TREASURY: 50_000_000,
}


@dataclass(frozen=True)
class ApprovalPolicy:
    threshold: int
    signer_set: tuple[str, ...]
    _signers: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (1 <= self.threshold <= len(self.signer_set)):
            raise ValueError("need 1 <= threshold <= |signer_set|")
        signers = frozenset(self.signer_set)
        if len(signers) != len(self.signer_set):
            raise ValueError("duplicate signer in set")
        object.__setattr__(self, "_signers", signers)

    def check(self, approvals: Iterable[str], action: str) -> tuple[str, ...]:
        valid = tuple(sorted(self._signers.intersection(approvals)))
        if len(valid) < self.threshold:
            raise InsufficientApprovals(
                f"{action}: {len(valid)} of required {self.threshold} approvals"
            )
        return valid


def default_policies() -> dict[BucketKind, ApprovalPolicy]:
    def roster(prefix: str, n: int) -> tuple[str, ...]:
        return tuple(f"{prefix}-{i}" for i in range(1, n + 1))

    return {
        BucketKind.ECOSYSTEM_ESCROW: ApprovalPolicy(5, roster("escrow", 8)),
        BucketKind.COMPANY_RESERVE: ApprovalPolicy(6, roster("reserve", 7)),
        BucketKind.TEAM_VESTING: ApprovalPolicy(3, roster("team", 5)),
    }


@dataclass
class VestingSchedule:
    total: int = GENESIS_ALLOCATIONS_KLD[BucketKind.TEAM_VESTING] * UNIT
    cliff_months: int = 12
    vest_months: int = 36
    released_months: int = 0
    released_total: int = 0

    def monthly_amount(self, release_number: int) -> int:
        """Releases 1..35 are floor(T/36); release 36 sweeps the remainder."""
        base = self.total // self.vest_months
        if release_number < self.vest_months:
            return base
        return self.total - base * (self.vest_months - 1)


@dataclass(frozen=True)
class RelockRecord:
    amount: int
    origin_bucket: BucketKind
    tx_hash: str
    justification: str


@dataclass
class LedgerState:
    s_max: int
    circulating: int
    buckets: dict[BucketKind, int]
    policies: dict[BucketKind, ApprovalPolicy]
    burned_cumulative: int
    vesting: VestingSchedule
    month_index: int                       # completed months since genesis
    annual_factors: Optional[PolicyFactors]
    releases_this_month: int
    reserve_spend_this_month: int
    reserve_month_start_balance: int
    relockable: dict[BucketKind, int] = field(default_factory=dict)
    relock_log: list[RelockRecord] = field(default_factory=list)
    burn_dust: int = 0                     # 1/SCALE base-unit remainders
    issuance_used_year: int = 0
    # append-only event list shared with clones; this state's history is
    # journal[:n_events], and entries past it belong to another branch
    journal: list[dict] = field(default_factory=list, repr=False)
    n_events: int = 0

    @property
    def event_log(self) -> list[dict]:
        """This state's own history, as a new list."""
        return self.journal[:self.n_events]

    def __eq__(self, other):
        # field-wise, with `journal` narrowed to this state's own history
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ({**vars(self), "journal": self.event_log}
                == {**vars(other), "journal": other.event_log})

    # --- snapshots -----------------------------------------------------------

    def clone(self) -> "LedgerState":
        # log entries, the journal and policies are never mutated in place
        # after creation, so they can be shared; other containers are copied
        vesting = self.vesting
        return LedgerState(
            s_max=self.s_max,
            circulating=self.circulating,
            buckets=dict(self.buckets),
            policies=self.policies,
            burned_cumulative=self.burned_cumulative,
            vesting=VestingSchedule(
                vesting.total, vesting.cliff_months, vesting.vest_months,
                vesting.released_months, vesting.released_total,
            ),
            month_index=self.month_index,
            annual_factors=self.annual_factors,
            releases_this_month=self.releases_this_month,
            reserve_spend_this_month=self.reserve_spend_this_month,
            reserve_month_start_balance=self.reserve_month_start_balance,
            relockable=dict(self.relockable),
            relock_log=list(self.relock_log),
            burn_dust=self.burn_dust,
            issuance_used_year=self.issuance_used_year,
            journal=self.journal,
            n_events=self.n_events,
        )

    def locked_total(self) -> int:
        return sum(self.buckets.values())

    def snapshot(self) -> dict:
        """Canonical, hashable view (event log excluded to avoid recursion)."""
        return {
            "s_max": self.s_max,
            "circulating": self.circulating,
            # ordered by bucket name; `_value_` is the plain attribute behind
            # the Python-level `Enum.value` property
            "buckets": dict(sorted(
                [(k._value_, v) for k, v in self.buckets.items()])),
            "burned_cumulative": self.burned_cumulative,
            "vesting": {
                "total": self.vesting.total,
                "released_months": self.vesting.released_months,
                "released_total": self.vesting.released_total,
            },
            "month_index": self.month_index,
            "burn_dust": self.burn_dust,
            "issuance_used_year": self.issuance_used_year,
            "releases_this_month": self.releases_this_month,
            "reserve_spend_this_month": self.reserve_spend_this_month,
            "g_used": self.annual_factors.g_used if self.annual_factors else None,
        }

    def state_hash(self) -> str:
        """SHA-256 of the canonical JSON of `snapshot()`, rendered directly."""
        factors = self.annual_factors
        g_used = None if factors is None else factors.g_used
        vesting = self.vesting
        return sha256_hex((_SNAPSHOT_TEMPLATE % (
            *_bucket_balances(self.buckets),
            self.burn_dust,
            self.burned_cumulative,
            self.circulating,
            "null" if g_used is None else "%d" % g_used,
            self.issuance_used_year,
            self.month_index,
            self.releases_this_month,
            self.reserve_spend_this_month,
            self.s_max,
            vesting.released_months,
            vesting.released_total,
            vesting.total,
        )).encode())

    def check_conservation(self) -> None:
        balances = self.buckets.values()
        total = self.circulating + sum(balances) + self.burned_cumulative
        if total != self.s_max:
            raise ConservationViolation(
                f"conservation sum {total} != s_max {self.s_max}"
            )
        if self.circulating < 0 or min(balances) < 0:
            raise ConservationViolation("negative balance")

    def _log(self, op: str, inputs: dict, approvals: tuple[str, ...] = ()) -> None:
        if len(self.journal) != self.n_events:
            # a state branched from the same history appended first, or a
            # failed transition left a tail: continue on a private copy
            self.journal = self.journal[:self.n_events]
        self.journal.append(
            {
                "op": op,
                "inputs": inputs,
                "approvals": list(approvals),
                "state_hash": self.state_hash(),
            }
        )
        self.n_events += 1


def to_json_dict(state: LedgerState) -> dict:
    """Full round-trippable dump (snapshot plus schedules, policies, log)."""
    factors = state.annual_factors
    return {
        "snapshot": state.snapshot(),
        "policies": {
            k.value: {"threshold": p.threshold, "signers": list(p.signer_set)}
            for k, p in state.policies.items()
        },
        "vesting": {
            "total": state.vesting.total,
            "cliff_months": state.vesting.cliff_months,
            "vest_months": state.vesting.vest_months,
            "released_months": state.vesting.released_months,
            "released_total": state.vesting.released_total,
        },
        "annual_factors": None if factors is None else {
            "phi_i": factors.phi_i,
            "burn_fraction": factors.burn_fraction,
            "escrow_cap": factors.escrow_cap,
            "staking_rate": factors.staking_rate,
            "issuance_budget": factors.issuance_budget,
            "g_used": factors.g_used,
        },
        "reserve_month_start_balance": state.reserve_month_start_balance,
        "relockable": {k.value: v for k, v in state.relockable.items()},
        "relock_log": [
            {"amount": r.amount, "bucket": r.origin_bucket.value,
             "tx_hash": r.tx_hash, "justification": r.justification}
            for r in state.relock_log
        ],
        "event_log": state.event_log,
    }


_BUCKET_NAMES = frozenset(k.value for k in BucketKind)
_SNAPSHOT_COUNTERS = ("s_max", "circulating", "burned_cumulative", "month_index",
                      "releases_this_month", "reserve_spend_this_month",
                      "burn_dust", "issuance_used_year")
_VESTING_FIELDS = tuple(f.name for f in fields(VestingSchedule))
_FACTOR_FIELDS = tuple(
    f.name for f in fields(PolicyFactors) if f.name != "g_used"
)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedFile(f"{where}: not a JSON object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise MalformedFile(f"{where}: not a JSON list")
    return value


def _ints(section: dict, names: Iterable[str], where: str) -> dict[str, int]:
    """The named fields of `section`; each must be a JSON integer (no bool,
    float or string, which would hash differently from the replayed state)."""
    values = {name: section[name] for name in names}
    bad = [name for name, v in values.items() if type(v) is not int]
    if bad:
        raise MalformedFile(f"{where}: not an integer: {', '.join(bad)}")
    return values


def _g_used(section: dict, where: str) -> Optional[int]:
    g_used = section["g_used"]
    if g_used is not None and type(g_used) is not int:
        raise MalformedFile(f"{where}: g_used is neither an integer nor null")
    return g_used


def _bucket_map(raw: dict, where: str) -> dict[BucketKind, int]:
    if not isinstance(raw, dict) or set(raw) != _BUCKET_NAMES:
        raise MalformedFile(
            f"{where}: keys must be exactly {', '.join(sorted(_BUCKET_NAMES))}"
        )
    return {BucketKind(k): v for k, v in _ints(raw, raw, where).items()}


def _policy(raw: dict, where: str) -> ApprovalPolicy:
    threshold = _ints(_object(raw, where), ("threshold",), where)["threshold"]
    signers = raw["signers"]
    if not isinstance(signers, list) or not all(isinstance(s, str) for s in signers):
        raise MalformedFile(f"{where}: signers is not a list of strings")
    return ApprovalPolicy(threshold, tuple(signers))


def _relock_record(raw: dict) -> RelockRecord:
    _object(raw, "relock_log entry")
    return RelockRecord(raw["amount"], BucketKind(raw["bucket"]), raw["tx_hash"],
                        raw["justification"])


def from_json_dict(data: dict) -> LedgerState:
    """Load a `to_json_dict` dump, raising MalformedFile on a shape, bucket
    set, number type or `g_used` that no replay of the ledger could produce."""
    snap = _object(_object(data, "ledger")["snapshot"], "snapshot")
    _g_used(snap, "snapshot")
    factors = data["annual_factors"]
    if factors is not None:
        factors = PolicyFactors(
            **_ints(_object(factors, "annual_factors"), _FACTOR_FIELDS,
                    "annual_factors"),
            g_used=_g_used(factors, "annual_factors"),
        )
    events = _list(data["event_log"], "event_log")
    state = LedgerState(
        **_ints(snap, _SNAPSHOT_COUNTERS, "snapshot"),
        **_ints(data, ("reserve_month_start_balance",), "ledger"),
        buckets=_bucket_map(snap["buckets"], "snapshot.buckets"),
        policies={
            BucketKind(k): _policy(p, f"policies.{k}")
            for k, p in _object(data["policies"], "policies").items()
        },
        vesting=VestingSchedule(
            **_ints(_object(data["vesting"], "vesting"), _VESTING_FIELDS, "vesting")
        ),
        annual_factors=factors,
        relockable=_bucket_map(data["relockable"], "relockable"),
        relock_log=[
            _relock_record(r) for r in _list(data["relock_log"], "relock_log")
        ],
        journal=list(events),
        n_events=len(events),
    )
    state.check_conservation()
    return state


def mint(state: LedgerState, amount: int) -> LedgerState:
    """Minting is permanently disabled after genesis. Always raises."""
    raise NoMintAfterGenesis("minting is permanently disabled after genesis")


def genesis(
    allocations_kld: Optional[dict[BucketKind, int]] = None,
    policies: Optional[dict[BucketKind, ApprovalPolicy]] = None,
) -> LedgerState:
    """Create the one and only supply at genesis; circulating starts at zero."""
    alloc = dict(allocations_kld or GENESIS_ALLOCATIONS_KLD)
    if set(alloc) != set(BucketKind):
        raise AllocationMismatch("allocations must cover every bucket exactly once")
    balances = {k: v * UNIT for k, v in alloc.items()}
    total = sum(balances.values())
    if total != S_MAX:
        raise AllocationMismatch(
            f"allocations sum to {total} base units, expected {S_MAX}"
        )
    state = LedgerState(
        s_max=S_MAX,
        circulating=0,
        buckets=balances,
        policies=policies or default_policies(),
        burned_cumulative=0,
        vesting=VestingSchedule(total=balances[BucketKind.TEAM_VESTING]),
        month_index=0,
        annual_factors=None,
        releases_this_month=0,
        reserve_spend_this_month=0,
        reserve_month_start_balance=balances[BucketKind.COMPANY_RESERVE],
        relockable={k: 0 for k in BucketKind},
    )
    state.check_conservation()
    state._log("genesis", {"allocations_kld": {k.value: v for k, v in alloc.items()}})
    return state


def begin_cycle(
    state: LedgerState, params: PolicyParams, g: int
) -> tuple[LedgerState, PolicyParams]:
    """Open a new annual cycle: derive per-cycle budget anchors and factors.

    The monthly escrow cap anchor is one twelfth of the 5% annual escrow
    budget; the annual gross issuance anchor is that budget plus twelve
    months of baseline staking emissions.
    """
    new = state.clone()
    escrow_balance = new.buckets[BucketKind.ECOSYSTEM_ESCROW]
    annual_escrow_budget = fp.scale_amount_down(
        escrow_balance, ESCROW_ANNUAL_BUDGET_FRACTION
    )
    e_base = annual_escrow_budget // 12
    staking_annual = 12 * fp.scale_amount_down(
        new.buckets[BucketKind.STAKING_RESERVE], params.effective_r_base()
    )
    cycle_params = params.with_changes(
        e_base=e_base, i_base=annual_escrow_budget + staking_annual
    )
    new.annual_factors = derive_cycle_factors(cycle_params, g, new.locked_total())
    new.issuance_used_year = 0
    new.releases_this_month = 0
    new.check_conservation()
    new._log("begin_cycle", {"g": g, "e_base": e_base, "i_base": cycle_params.i_base})
    return new, cycle_params


def carry_cycle(state: LedgerState) -> LedgerState:
    """Open a new annual cycle under the factors already in force.

    Used when a cycle lapses to its last confirmed g: the year's issuance
    count and this month's releases start again from zero.
    """
    new = state.clone()
    new.issuance_used_year = 0
    new.releases_this_month = 0
    new._log("carry_cycle", {})
    return new


def vest_month(state: LedgerState) -> tuple[LedgerState, int]:
    """Release one month of the team schedule into circulation.

    The month being processed is month_index + 1; months 1-12 are the
    cliff, releases run months 13-48.
    """
    if state.month_index < state.vesting.cliff_months:
        raise CliffActive(
            f"month {state.month_index + 1} is within the {state.vesting.cliff_months}-month cliff"
        )
    if state.vesting.released_months >= state.vesting.vest_months:
        raise VestingComplete("all 36 vesting releases done")
    new = state.clone()
    return new, _vest_step(new)


def _vest_step(state: LedgerState) -> int:
    release_no = state.vesting.released_months + 1
    amount = state.vesting.monthly_amount(release_no)
    state.buckets[BucketKind.TEAM_VESTING] -= amount
    state.circulating += amount
    state.vesting.released_months = release_no
    state.vesting.released_total += amount
    state.check_conservation()
    state._log("vest_month", {"release_number": release_no, "amount": amount})
    return amount


def release_escrow(
    state: LedgerState, requested: int, approvals: Iterable[str]
) -> tuple[LedgerState, int]:
    """Move escrow tokens into circulation under the monthly cap and the
    annual issuance budget, gated by the 5-of-8 escrow multisig."""
    if requested < 0:
        raise ValueError("requested must be nonnegative")
    if state.annual_factors is None:
        raise ZeroCap("no active cycle factors")
    valid = state.policies[BucketKind.ECOSYSTEM_ESCROW].check(
        approvals, "release_escrow"
    )
    factors = state.annual_factors
    cap_remaining = max(0, factors.escrow_cap - state.releases_this_month)
    budget_remaining = max(0, factors.issuance_budget - state.issuance_used_year)
    balance = state.buckets[BucketKind.ECOSYSTEM_ESCROW]
    released = min(requested, cap_remaining, budget_remaining, balance)
    if released <= 0:
        raise ZeroCap(
            f"release of 0 (requested {requested}, cap remaining {cap_remaining}, "
            f"budget remaining {budget_remaining}, balance {balance})"
        )
    new = state.clone()
    new.buckets[BucketKind.ECOSYSTEM_ESCROW] -= released
    new.circulating += released
    new.releases_this_month += released
    new.issuance_used_year += released
    new.relockable[BucketKind.ECOSYSTEM_ESCROW] += released
    new.check_conservation()
    new._log("release_escrow", {"requested": requested, "released": released}, valid)
    return new, released


def burn(state: LedgerState, amount: int, fee_pool: int) -> LedgerState:
    """Permanently destroy circulating tokens from the fee pool.

    Irreversible by construction: no inverse operation exists anywhere in
    this module's API.
    """
    if amount < 0:
        raise ValueError("amount must be nonnegative")
    if amount > fee_pool:
        raise InsufficientFeePool(f"burn {amount} exceeds fee pool {fee_pool}")
    if amount > state.circulating:
        raise InsufficientFeePool(
            f"burn {amount} exceeds circulating {state.circulating}"
        )
    new = state.clone()
    _burn_step(new, amount)
    return new


def _burn_step(state: LedgerState, amount: int) -> None:
    state.circulating -= amount
    state.burned_cumulative += amount
    state.check_conservation()
    state._log("burn", {"amount": amount})


def emit_staking(state: LedgerState, rate: int) -> tuple[LedgerState, int]:
    """Release staking rewards from the reserve at the cycle's rate.

    Emissions count against the annual issuance budget and stop at zero
    once the reserve (or the budget) is exhausted.
    """
    emission = _staking_emission(state, rate)
    if emission == 0:
        return state, 0
    new = state.clone()
    _emit_staking_step(new, rate, emission)
    return new, emission


def _staking_emission(state: LedgerState, rate: int) -> int:
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    factors = state.annual_factors
    budget_remaining = (
        max(0, factors.issuance_budget - state.issuance_used_year)
        if factors is not None
        else 0
    )
    emission = fp.scale_amount_down(state.buckets[BucketKind.STAKING_RESERVE], rate)
    return min(emission, budget_remaining)


def _emit_staking_step(state: LedgerState, rate: int, emission: int) -> None:
    state.buckets[BucketKind.STAKING_RESERVE] -= emission
    state.circulating += emission
    state.issuance_used_year += emission
    state.check_conservation()
    state._log("emit_staking", {"rate": rate, "emission": emission})


def spend_reserve(
    state: LedgerState, amount: int, approvals: Iterable[str]
) -> tuple[LedgerState, bool]:
    """Operational spend from the company reserve, gated 6-of-7.

    The 1%-per-month guideline is advisory: exceeding it succeeds but the
    transition carries a GuidelineExceeded flag for the report.
    """
    if amount < 0:
        raise ValueError("amount must be nonnegative")
    valid = state.policies[BucketKind.COMPANY_RESERVE].check(approvals, "spend_reserve")
    if amount > state.buckets[BucketKind.COMPANY_RESERVE]:
        raise ValueError("spend exceeds reserve balance")
    new = state.clone()
    new.buckets[BucketKind.COMPANY_RESERVE] -= amount
    new.circulating += amount
    new.reserve_spend_this_month += amount
    guideline_cap = fp.scale_amount_down(
        new.reserve_month_start_balance, RESERVE_MONTHLY_GUIDELINE
    )
    flagged = new.reserve_spend_this_month > guideline_cap
    new.check_conservation()
    new._log(
        "spend_reserve",
        {"amount": amount, "guideline_exceeded": flagged},
        valid,
    )
    return new, flagged


def mark_distributed(state: LedgerState, bucket: BucketKind, amount: int) -> LedgerState:
    """Record that released tokens were distributed, removing relock rights."""
    if amount < 0 or amount > state.relockable.get(bucket, 0):
        raise ValueError("distributed amount exceeds relockable balance")
    new = state.clone()
    new.relockable[bucket] -= amount
    new._log("mark_distributed", {"bucket": bucket.value, "amount": amount})
    return new


def relock(
    state: LedgerState, amount: int, bucket: BucketKind, justification: str
) -> LedgerState:
    """Return released-but-undistributed tokens to their origin bucket.

    Relocking never increases future release rights: releases_this_month
    and the annual budget usage are left as charged.
    """
    if amount <= 0:
        raise ValueError("relock amount must be positive")
    if bucket not in (BucketKind.ECOSYSTEM_ESCROW,):
        if bucket not in state.relockable or state.relockable[bucket] == 0:
            raise CrossBucketRelock(
                f"no released tokens originate from {bucket.value}"
            )
    if amount > state.relockable.get(bucket, 0):
        raise RelockExceedsRelease(
            f"relock {amount} exceeds undistributed release {state.relockable.get(bucket, 0)}"
        )
    new = state.clone()
    new.buckets[bucket] += amount
    new.circulating -= amount
    new.relockable[bucket] -= amount
    record = RelockRecord(
        amount=amount,
        origin_bucket=bucket,
        tx_hash=content_hash(
            {"op": "relock", "bucket": bucket.value, "amount": amount,
             "seq": len(new.relock_log)}
        ),
        justification=justification,
    )
    new.relock_log.append(record)
    new.check_conservation()
    new._log("relock", {"bucket": bucket.value, "amount": amount,
                        "justification": justification})
    return new


def advance_month(
    state: LedgerState, fees_this_month: int
) -> tuple[LedgerState, dict]:
    """Apply one month of automatic flows in fixed order, atomically.

    Order: vesting (if due) -> staking emission -> fee burn -> month
    counter -> monthly cap reset. All steps run on one private copy of the
    state; each step re-checks conservation and logs its own event, exactly
    as the public transition of the same name would, so any failure leaves
    the input state untouched.
    """
    if fees_this_month < 0:
        raise ValueError("fees must be nonnegative")
    if state.annual_factors is None:
        raise ZeroCap("no active cycle factors; call begin_cycle first")
    factors = state.annual_factors

    working = state.clone()
    summary = {"vested": 0, "emitted": 0, "burned": 0}

    in_vesting = (
        working.month_index >= working.vesting.cliff_months
        and working.vesting.released_months < working.vesting.vest_months
    )
    if in_vesting:
        summary["vested"] = _vest_step(working)

    emitted = _staking_emission(working, factors.staking_rate)
    if emitted:
        _emit_staking_step(working, factors.staking_rate, emitted)
    summary["emitted"] = emitted

    fee_pool = min(fees_this_month, working.circulating)
    burn_amount = fp.scale_amount_down(fee_pool, factors.burn_fraction)
    dust = working.burn_dust + fp.scale_amount_remainder(fee_pool, factors.burn_fraction)
    extra = dust // fp.SCALE
    dust -= extra * fp.SCALE
    burn_amount = min(burn_amount + extra, fee_pool)
    if burn_amount > 0:
        _burn_step(working, burn_amount)
    working.burn_dust = dust
    summary["burned"] = burn_amount

    working.month_index += 1
    working.releases_this_month = 0
    working.reserve_spend_this_month = 0
    working.reserve_month_start_balance = working.buckets[BucketKind.COMPANY_RESERVE]
    working.relockable = dict.fromkeys(working.relockable, 0)
    working.check_conservation()
    working._log("advance_month", {"fees": fees_this_month, **summary})
    return working, summary
