"""Exact-integer supply state machine.

All balances are integer base units (1 KLD = 10^6 units). Every transition
is its op's rule in `_RULES`: a check, which raises and mutates nothing and
returns the event's full inputs, then an apply of those inputs to a private
copy, after which supply conservation is re-checked and the event is logged
with its state hash. The prior state is never touched. A month is one such
event: its check computes the vesting release, staking emission and fee burn
in their fixed order, and its apply moves them and rolls the month. A stored
ledger is its event log alone, and is loaded by `replay` of that log from
genesis through the same rules, so it is valid exactly when it is what its
own log replays to. The state keeps only what that log does not fix: the
supply cap, the genesis table, the escrow multisig and the vesting schedule
are constants of the mechanism, and the team tokens vested so far follow
from the month. The five ops are genesis, begin_cycle, carry_cycle,
release_escrow and advance_month. The genesis table allocates the company
reserve, but no op spends it, and no op takes a release back. There is no
mint operation and no inverse of burn anywhere on the public surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from hashlib import sha256
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import fixedpoint as fp
from .errors import (
    AllocationMismatch,
    ConservationViolation,
    InsufficientApprovals,
    KladiaError,
    MalformedFile,
    ZeroCap,
)
from .policy import PolicyFactors, PolicyParams, derive_cycle_factors

ASSET_SCALE = 6
UNIT = 10 ** ASSET_SCALE            # base units per KLD
S_MAX_KLD = 10_000_000_000
S_MAX = S_MAX_KLD * UNIT            # 10^16 base units

# Escrow base annual release budget: up to 5% of the escrow balance.
ESCROW_ANNUAL_BUDGET_FRACTION = fp.from_str("0.05")
# Team vesting: a 12-month cliff, then 36 monthly releases.
CLIFF_MONTHS = 12
VEST_MONTHS = 36


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


# the canonical JSON that `state_hash()` hashes and `snapshot()` parses: keys
# and bucket names sorted, ints as %d, `g_used` as `null` or an int.
# tests/test_ledger.py pins it against canonical.content_hash(state.snapshot()).
# The reserve's monthly spend renders as a literal 0, since no op spends the
# reserve; dropping the key moves every state hash, so it goes with the
# re-freeze that drops `s_max` and `vesting` (ROADMAP item 2).
_BUCKETS_BY_NAME = tuple(sorted(BucketKind, key=lambda k: k.value))
_bucket_balances = itemgetter(*_BUCKETS_BY_NAME)
_SNAPSHOT_TEMPLATE = (
    '{"buckets":{'
    + ",".join(f'"{k.value}":%d' for k in _BUCKETS_BY_NAME)
    + '},"burn_dust":%d,"burned_cumulative":%d,"circulating":%d,"g_used":%s,'
    '"issuance_used_year":%d,"month_index":%d,"releases_this_month":%d,'
    '"reserve_spend_this_month":0,"s_max":%d,'
    '"vesting":{"released_months":%d,"released_total":%d,"total":%d}}'
).encode()


GENESIS_ALLOCATIONS_KLD: dict[BucketKind, int] = {
    BucketKind.ECOSYSTEM_ESCROW: 5_500_000_000,
    BucketKind.TEAM_VESTING: 2_500_000_000,
    BucketKind.COMPANY_RESERVE: 1_000_000_000,
    BucketKind.COMMUNITY_AIRDROP: 500_000_000,
    BucketKind.STAKING_RESERVE: 300_000_000,
    BucketKind.LIQUIDITY_PARTNERSHIPS: 150_000_000,
    BucketKind.LEGAL_TREASURY: 50_000_000,
}
# the published table as a genesis event logs it; its check accepts no other
_GENESIS_KLD = {k.value: v for k, v in GENESIS_ALLOCATIONS_KLD.items()}
VEST_TOTAL = GENESIS_ALLOCATIONS_KLD[BucketKind.TEAM_VESTING] * UNIT


def _team_vesting(months: int) -> tuple[int, int]:
    """The team releases made, and the tokens they released, once `months`
    months are complete: none through the cliff, then floor(VEST_TOTAL/36)
    a release, the 36th sweeping in the remainder."""
    releases = min(max(0, months - CLIFF_MONTHS), VEST_MONTHS)
    if releases == VEST_MONTHS:
        return releases, VEST_TOTAL
    return releases, releases * (VEST_TOTAL // VEST_MONTHS)


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


def _roster(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}-{i}" for i in range(1, n + 1))


# the escrow multisig: 5 of these 8 signers approve a release
ESCROW_POLICY = ApprovalPolicy(5, _roster("escrow", 8))


@dataclass
class LedgerState:
    circulating: int
    buckets: dict[BucketKind, int]
    burned_cumulative: int
    month_index: int                       # completed months since genesis
    annual_factors: Optional[PolicyFactors]
    releases_this_month: int
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
        """A copy that a transition may change in place.

        Only `buckets`, the one container a transition mutates, is copied.
        Every other field is an int or an immutable value, or is shared: the
        append-only journal, which `_log` forks rather than append past
        another branch's events.

        The arguments are positional, in field order, because keywords cost
        more. A copy of `__dict__` is cheaper to make, but every later
        attribute read on it is slower, and a transition reads many.
        """
        return LedgerState(
            self.circulating, self.buckets.copy(), self.burned_cumulative,
            self.month_index, self.annual_factors, self.releases_this_month,
            self.burn_dust, self.issuance_used_year, self.journal, self.n_events,
        )

    def locked_total(self) -> int:
        return sum(self.buckets.values())

    def snapshot(self) -> dict:
        """Canonical, hashable view (event log excluded to avoid recursion)."""
        return json.loads(self._snapshot_bytes())

    def state_hash(self) -> str:
        """SHA-256 of the canonical JSON of `snapshot()`."""
        return sha256(self._snapshot_bytes()).hexdigest()

    def _snapshot_bytes(self) -> bytes:
        """`snapshot()` as canonical JSON, rendered directly from the template;
        its vesting section follows from the month."""
        factors = self.annual_factors
        g_used = None if factors is None else factors.g_used
        return _SNAPSHOT_TEMPLATE % (
            *_bucket_balances(self.buckets),
            self.burn_dust,
            self.burned_cumulative,
            self.circulating,
            b"null" if g_used is None else b"%d" % g_used,
            self.issuance_used_year,
            self.month_index,
            self.releases_this_month,
            S_MAX,
            *_team_vesting(self.month_index),
            VEST_TOTAL,
        )

    def check_conservation(self) -> None:
        balances = self.buckets.values()
        total = self.circulating + sum(balances) + self.burned_cumulative
        if total != S_MAX:
            raise ConservationViolation(
                f"conservation sum {total} != s_max {S_MAX}"
            )
        if self.circulating < 0 or min(balances) < 0:
            raise ConservationViolation("negative balance")

    def _log(self, op: str, inputs: dict, approvals: tuple[str, ...] = ()) -> None:
        if len(self.journal) != self.n_events:
            # a state branched from the same history appended first:
            # continue on a private copy
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
    """The stored form of a ledger, `ledger.json`: its event log, from which
    `from_json_dict` replays every other field."""
    return {"event_log": state.event_log}


def from_json_dict(data: dict) -> LedgerState:
    """Load a `to_json_dict` dump: `replay` its event log, then require the
    dump to be, byte for byte, the replayed state's. That refuses an extra
    key, a derived event field spelled another way, and any other layout.
    Every failure raises MalformedFile.
    """
    if type(data) is dict and list(data) == ["event_log"]:
        state = replay(data["event_log"])
        if json.dumps(to_json_dict(state)) == json.dumps(data):
            return state
    raise MalformedFile("ledger: not what its event log replays to")


def replay(events: Iterable[dict]) -> LedgerState:
    """The state a stored event log replays to from genesis.

    Each event runs the check and apply its live call ran, which take only
    ints where the ledger keeps ints, and must log exactly the stored event,
    state hash included. Every failure raises MalformedFile naming the event.
    """
    state, where = None, "event_log"
    try:
        for i, event in enumerate(events):
            where = f"event {i}"
            op = event["op"]
            if (state is None) != (op == "genesis"):
                raise MalformedFile(f"{where}: genesis must open the log, once")
            inputs, valid = _RULES[op].check(state, event["inputs"], event["approvals"])
            state = _step(state, op, inputs, valid)
            if state.journal[-1] != event:
                raise MalformedFile(f"{where} ({op}): not what its replay logs")
    except MalformedFile:
        raise
    except (KladiaError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedFile(f"{where}: {type(exc).__name__}: {exc}") from None
    if state is None:
        raise MalformedFile("event_log: genesis must open the log, once")
    return state


# --- transitions: one rule per op, its check beside its apply ----------------

# A begin_cycle event logs every PolicyParams field as one list in this order
# beside g, e_base and i_base: `kld verify` parses all of `ledger.json`.
_COEFFICIENTS = tuple(f.name for f in fields(PolicyParams))


def _fee_burn(state: LedgerState, fee_pool: int) -> tuple[int, int]:
    """The month's burn from `fee_pool` at the cycle's burn fraction, with
    the carried 1/SCALE dust, and the dust left after it: one `divmod` of
    the product plus the dust, whole base units and the 1/SCALE rest, which
    never exceeds the pool: the fraction is at most 1, the dust below SCALE."""
    return divmod(fee_pool * state.annual_factors.burn_fraction
                  + state.burn_dust, fp.SCALE)


def _field(inputs: dict, name: str, kind: type = int):
    """`inputs[name]`, exactly of type `kind`: a replay must not carry a float,
    bool or string into the exact-integer state."""
    value = inputs[name]
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
    return value


def last_cycle(events: Sequence[dict], end: int,
               ops: tuple[str, ...] = ("begin_cycle", "carry_cycle")) -> Optional[int]:
    """Where the last event of `events[:end]` with an op in `ops` is, or None."""
    for pos in range(end - 1, -1, -1):
        if events[pos]["op"] in ops:
            return pos
    return None


def _check_genesis(state, inputs, approvals):
    kld = inputs["allocations_kld"]
    alloc = {k: _field(kld, k) for k in kld}
    if alloc != _GENESIS_KLD:
        raise AllocationMismatch("allocations are not the published genesis table")
    return {"allocations_kld": alloc}, ()


def _apply_genesis(state, inputs):
    return LedgerState(
        circulating=0, buckets={BucketKind(k): v * UNIT for k, v in
                                inputs["allocations_kld"].items()},
        burned_cumulative=0, month_index=0, annual_factors=None,
        releases_this_month=0,
    )


def _check_carry_cycle(state, inputs, approvals):
    # a year is settled once: its cycle must follow the last logged one
    year = _field(inputs, "year")
    last = last_cycle(state.journal, state.n_events)
    if last is not None and year <= state.journal[last]["inputs"]["year"]:
        raise KladiaError(f"year {year} is already settled, or a later one is")
    return {"year": year}, ()


def _apply_carry_cycle(state, inputs):
    state.issuance_used_year = state.releases_this_month = 0
    return state


def _check_begin_cycle(state, inputs, approvals):
    # carry_cycle's year rule, then the anchors: the monthly escrow cap anchor
    # is one twelfth of the 5% annual escrow budget; the annual gross issuance
    # anchor is that budget plus twelve months of baseline staking emissions
    year = _check_carry_cycle(state, inputs, approvals)[0]["year"]
    g = _field(inputs, "g")
    if not 0 <= g < fp.ONE:
        raise ValueError("g must be in [0, 1)")
    coefficients = dict(zip(_COEFFICIENTS, _field(inputs, "coefficients", list),
                            strict=True))
    params = PolicyParams(**{k: _field(coefficients, k) for k in coefficients})
    escrow_budget = fp.scale_amount_down(
        state.buckets[BucketKind.ECOSYSTEM_ESCROW], ESCROW_ANNUAL_BUDGET_FRACTION)
    staking_annual = 12 * fp.scale_amount_down(
        state.buckets[BucketKind.STAKING_RESERVE], params.effective_r_base())
    e_base = escrow_budget // 12
    if e_base and params.e_min > e_base:
        raise ValueError("need e_min <= e_base")
    return {"year": year, "g": g, "e_base": e_base,
            "i_base": escrow_budget + staking_annual,
            "coefficients": list(coefficients.values())}, ()


def _apply_begin_cycle(state, inputs):
    state.annual_factors = derive_cycle_factors(
        PolicyParams(*inputs["coefficients"]), inputs["g"], inputs["e_base"],
        inputs["i_base"], state.locked_total())
    return _apply_carry_cycle(state, inputs)


def _check_release_escrow(state, inputs, approvals):
    requested = _field(inputs, "requested")
    if requested < 0:
        raise ValueError("requested must be nonnegative")
    factors = state.annual_factors
    if factors is None:
        raise ZeroCap("no active cycle factors")
    valid = ESCROW_POLICY.check(approvals, "release_escrow")
    cap_remaining = max(0, factors.escrow_cap - state.releases_this_month)
    budget_remaining = max(0, factors.issuance_budget - state.issuance_used_year)
    balance = state.buckets[BucketKind.ECOSYSTEM_ESCROW]
    released = min(requested, cap_remaining, budget_remaining, balance)
    if released <= 0:
        raise ZeroCap(
            f"release of 0 (requested {requested}, cap remaining {cap_remaining}, "
            f"budget remaining {budget_remaining}, balance {balance})"
        )
    return {"requested": requested, "released": released}, valid


def _apply_release_escrow(state, inputs):
    released = inputs["released"]
    state.buckets[BucketKind.ECOSYSTEM_ESCROW] -= released
    state.circulating += released
    state.releases_this_month += released
    state.issuance_used_year += released
    return state


def _check_advance_month(state, inputs, approvals):
    # the month's flows in their fixed order: the vesting release if due,
    # the staking emission at the cycle's rate under the year's budget,
    # then the fee burn from the supply those two leave circulating
    fees = _field(inputs, "fees")
    if fees < 0:  # the one sign check on the burn: `_fee_burn` floors any product
        raise ValueError("fees must be nonnegative")
    factors = state.annual_factors
    if factors is None:
        raise ZeroCap("no active cycle factors; call begin_cycle first")
    vested = (_team_vesting(state.month_index + 1)[1]
              - _team_vesting(state.month_index)[1])
    emitted = min(
        fp.scale_amount_down(state.buckets[BucketKind.STAKING_RESERVE],
                             factors.staking_rate),
        max(0, factors.issuance_budget - state.issuance_used_year))
    burned = _fee_burn(state, min(fees, state.circulating + vested + emitted))[0]
    return {"fees": fees, "vested": vested, "emitted": emitted,
            "burned": burned}, ()


def _apply_advance_month(state, inputs):
    # the month's flows, then the month roll (counter, monthly resets and
    # the burn dust, which the fee pool after vesting and emission gives)
    vested, emitted, burned = inputs["vested"], inputs["emitted"], inputs["burned"]
    state.buckets[BucketKind.TEAM_VESTING] -= vested
    state.buckets[BucketKind.STAKING_RESERVE] -= emitted
    state.issuance_used_year += emitted
    state.circulating += vested + emitted
    state.burn_dust = _fee_burn(state, min(inputs["fees"], state.circulating))[1]
    state.circulating -= burned
    state.burned_cumulative += burned
    state.month_index += 1
    state.releases_this_month = 0
    return state


# An op's rule is its check and its apply, defined side by side above.
# `check(state, inputs, approvals)` validates the op on `state` and returns
# the event's full inputs and its valid approvals; it raises, and mutates
# nothing. `inputs` is a live call's request or a logged event's inputs. Only
# the request fields are read, so a replay recomputes whatever the ledger
# derives from them. `apply(state, inputs)` applies a checked event to `state`
# in place and returns it; genesis makes the state. It is pure bookkeeping:
# no hash, no log and no check, so it cannot raise. `_transition` and
# `replay` dispatch through this table alone; an unknown op is a KeyError.
class Rule(NamedTuple):
    check: Callable[..., tuple[dict, tuple[str, ...]]]
    apply: Callable[..., LedgerState]


_RULES: dict[str, Rule] = {
    "genesis": Rule(_check_genesis, _apply_genesis),
    "begin_cycle": Rule(_check_begin_cycle, _apply_begin_cycle),
    "carry_cycle": Rule(_check_carry_cycle, _apply_carry_cycle),
    "release_escrow": Rule(_check_release_escrow, _apply_release_escrow),
    "advance_month": Rule(_check_advance_month, _apply_advance_month),
}


def _step(state: Optional[LedgerState], op: str, inputs: dict,
          approvals: tuple[str, ...] = ()) -> LedgerState:
    """Apply a checked event in place, re-check conservation and log it."""
    state = _RULES[op].apply(state, inputs)
    state.check_conservation()
    state._log(op, inputs, approvals)
    return state


def _transition(state: Optional[LedgerState], op: str, request: dict,
                approvals: Iterable[str] = ()) -> tuple[LedgerState, dict]:
    """Check, then apply on a private copy; returns it and the event's inputs."""
    inputs, valid = _RULES[op].check(state, request, approvals)
    return _step(None if state is None else state.clone(), op, inputs, valid), inputs


# --- public transitions ------------------------------------------------------

def genesis() -> LedgerState:
    """Create the one and only supply at genesis; circulating starts at zero."""
    return _transition(None, "genesis", {"allocations_kld": _GENESIS_KLD})[0]


def begin_cycle(state: LedgerState, params: PolicyParams, g: int,
                year: int) -> LedgerState:
    """Open `year`'s annual cycle: derive per-cycle budget anchors and factors.

    The event logs the year, which must follow the last cycle's, `g`, the
    anchors `e_base` and `i_base` derived from the escrow and staking
    balances, and every `PolicyParams` field as one list in field order.
    """
    return _transition(state, "begin_cycle", {
        "year": year, "g": g,
        "coefficients": [getattr(params, k) for k in _COEFFICIENTS]})[0]


def carry_cycle(state: LedgerState, year: int) -> LedgerState:
    """Open `year`'s annual cycle under the factors already in force.

    Used when a cycle lapses to its last confirmed g: the year's issuance
    count and this month's releases start again from zero.
    """
    return _transition(state, "carry_cycle", {"year": year})[0]


def release_escrow(
    state: LedgerState, requested: int, approvals: Iterable[str]
) -> tuple[LedgerState, int]:
    """Move escrow tokens into circulation under the monthly cap and the
    annual issuance budget, gated by the 5-of-8 escrow multisig."""
    new, inputs = _transition(
        state, "release_escrow", {"requested": requested}, approvals
    )
    return new, inputs["released"]


def advance_month(
    state: LedgerState, fees_this_month: int
) -> tuple[LedgerState, dict]:
    """Apply one month of automatic flows in fixed order, as one event.

    Order: vesting (if due) -> staking emission -> fee burn -> the month
    roll (counter, monthly resets, burn dust). The check computes the three
    amounts and the event logs them beside the fees; they are returned as
    the month's summary. Like every transition it applies to a private
    copy, so any failure leaves the input state untouched.
    """
    new, inputs = _transition(state, "advance_month", {"fees": fees_this_month})
    return new, {k: inputs[k] for k in ("vested", "emitted", "burned")}
