"""Annual policy-update state machine.

Submissions from the published operator roster are checked for internal
consistency, aggregated by lower-median, published into a fixed 72-hour
challenge window, and only an undisputed, expired window may be executed
by the 5-of-8 policy executor. Two operators flagging one issue dispute the
window, and a disputed window lapses to the last confirmed g after 14 days;
nothing reopens it. Nothing on this surface accepts an externally chosen g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from . import fixedpoint as fp
from .canonical import canonical_bytes, sha256_hex
from .clock import VirtualClock
from .debt_index import BaselineRef, index_kernel
from .errors import (
    DuplicateSubmission,
    IncompleteBlocSet,
    InconsistentPayload,
    MalformedFile,
    NoSubmissions,
    NotExecutable,
    SubmissionsClosed,
    UnknownOperator,
    WindowClosed,
)
from .ledger import ApprovalPolicy, LedgerState, _roster, begin_cycle, carry_cycle
from .policy import PolicyParams
from .weo_ingest import ALL_BLOCS, WeoVintage, check_ranges, check_vintage

CHALLENGE_WINDOW = timedelta(hours=72)
CORRECTION_DEADLINE = timedelta(days=14)

# the policy executor: 5 of these 8 signers approve an execution
EXECUTOR_POLICY = ApprovalPolicy(5, _roster("exec", 8))
# the published oracle roster: any subset of it may submit in a cycle
ORACLE_OPERATORS = _roster("op", 8)


class WindowStatus(Enum):
    PENDING = "Pending"                  # submissions still open, window not started
    OPEN = "Open"
    EXPIRED_CLEAN = "ExpiredClean"
    DISPUTED = "Disputed"
    EXECUTED = "Executed"
    LAPSED = "LapsedToLastConfirmed"


@dataclass(frozen=True)
class SubmissionPayload:
    """One KC7 input set plus the derived index values one operator publishes.

    The debt ratios and GDPs are scaled values in ALL_BLOCS order. A payload
    is signed as built and never changed, so its canonical view, which lists
    them by bloc code, and that view's canonical bytes are each rendered once
    and cached; every operator that signs the same payload hashes the same
    bytes.
    """

    debt_ratios: tuple[int, ...]
    nominal_gdps: tuple[int, ...]
    bdi: int
    x_norm: int
    g: int
    vintage_id: str
    dataset_hash: str

    def canonical(self) -> dict:
        """The payload as the signed, hashed dict; a fresh copy per call."""
        view = self._canonical
        return {**view, "debt_ratios": dict(view["debt_ratios"]),
                "nominal_gdps": dict(view["nominal_gdps"])}

    @cached_property
    def _canonical(self) -> dict:
        return {
            "debt_ratios": _by_bloc_code(self.debt_ratios),
            "nominal_gdps": _by_bloc_code(self.nominal_gdps),
            "bdi": fp.to_str(self.bdi),
            "x_norm": fp.to_str(self.x_norm),
            "g": fp.to_str(self.g),
            "vintage_id": self.vintage_id,
            "dataset_hash": self.dataset_hash,
        }

    @cached_property
    def _canonical_bytes(self) -> bytes:
        """`canonical.canonical_bytes(self.canonical())`, encoded once."""
        return canonical_bytes(self._canonical)


# each bloc code with its position in ALL_BLOCS, ordered by code
_BY_CODE = dict(sorted((b.value, i) for i, b in enumerate(ALL_BLOCS)))


def _by_bloc_code(values: tuple[int, ...]) -> dict[str, str]:
    return {code: fp.to_str(values[i]) for code, i in _BY_CODE.items()}


def _bloc_values(view: dict, key: str, where: str) -> tuple[int, ...]:
    """`view[key]`, an object of a decimal for exactly each KC7 bloc code, as
    the values in ALL_BLOCS order."""
    values = view[key]
    if not isinstance(values, dict):
        raise MalformedFile(f"{where}: {key}: not a JSON object")
    if values.keys() != _BY_CODE.keys():
        raise IncompleteBlocSet(
            f"{where}: {key}: need exactly the KC7 set, got {list(values)}")
    return tuple([fp.from_str(values[b._value_]) for b in ALL_BLOCS])


def read_payload(view: dict, where: str) -> SubmissionPayload:
    """The inverse of `SubmissionPayload.canonical()`, decimals spelled as
    `fp.from_str` reads them; a bad vintage or bloc set raises naming `where`,
    and a bloc out of range (`check_ranges`) NegativeValue."""
    try:
        check_vintage(view["vintage_id"], view["dataset_hash"])
    except MalformedFile as exc:
        raise MalformedFile(f"{where}: {exc}") from None
    payload = SubmissionPayload(
        _bloc_values(view, "debt_ratios", where),
        _bloc_values(view, "nominal_gdps", where),
        fp.from_str(view["bdi"]), fp.from_str(view["x_norm"]), fp.from_str(view["g"]),
        view["vintage_id"], view["dataset_hash"])
    for levels in zip(ALL_BLOCS, payload.debt_ratios, payload.nominal_gdps):
        check_ranges(*levels)
    return payload


@dataclass(frozen=True)
class OracleSubmission:
    operator_id: str
    payload: SubmissionPayload
    timestamp: datetime
    signature: str  # digest bound to (operator_id, canonical payload)

    @staticmethod
    def sign(operator_id: str, payload: SubmissionPayload, timestamp: datetime
             ) -> "OracleSubmission":
        """Sign `content_hash({"operator": operator_id, "payload": view})`,
        `view` being `payload.canonical()`.

        The hashed bytes are spliced around the payload's cached encoding.
        Canonical JSON sorts the keys ("operator" < "payload") and has no
        whitespace, so the splice is that dict's canonical form byte for
        byte.
        """
        sig = sha256_hex(b'{"operator":' + canonical_bytes(operator_id)
                         + b',"payload":' + payload._canonical_bytes + b'}')
        return OracleSubmission(operator_id, payload, timestamp, sig)

    def canonical(self) -> dict:
        return {"operator": self.operator_id, "signature": self.signature,
                "timestamp": self.timestamp.isoformat(),
                "payload": self.payload.canonical()}


@dataclass(frozen=True)
class Flag:
    operator_id: str
    issue_code: str
    comment: str


@dataclass
class CycleRecord:
    cycle_year: int
    prior_confirmed_g: int
    submissions: list[OracleSubmission] = field(default_factory=list)
    median_payload: Optional[SubmissionPayload] = None
    # the challenge window
    opened_at: Optional[datetime] = None
    flags: list[Flag] = field(default_factory=list)
    status: WindowStatus = WindowStatus.PENDING

    @property
    def confirmed_g(self) -> Optional[int]:
        """The median's g once executed, the prior confirmed g once lapsed,
        else None."""
        if self.status is WindowStatus.EXECUTED:
            return self.median_payload.g
        return self.prior_confirmed_g if self.status is WindowStatus.LAPSED else None

    @property
    def carried_forward(self) -> bool:
        """Whether the cycle lapsed, carrying the prior confirmed g forward."""
        return self.status is WindowStatus.LAPSED

    def canonical(self) -> dict:
        return {
            "cycle_year": self.cycle_year,
            "prior_confirmed_g": fp.to_str(self.prior_confirmed_g),
            "submissions": [s.canonical() for s in self.submissions],
            "median": self.median_payload.canonical() if self.median_payload else None,
            "status": self.status.value,
            "flags": [
                {"operator": f.operator_id, "issue_code": f.issue_code,
                 "comment": f.comment}
                for f in self.flags
            ],
            "confirmed_g": fp.to_str(self.confirmed_g)
            if self.confirmed_g is not None else None,
            "carried_forward": self.carried_forward,
        }


def build_payload(
    debt_ratios: tuple[int, ...],
    nominal_gdps: tuple[int, ...],
    baseline: BaselineRef,
    vintage: WeoVintage,
) -> SubmissionPayload:
    """Derive a fully consistent payload from one KC7 input set, in
    ALL_BLOCS order."""
    _, bdi, x_norm, _, g = index_kernel(debt_ratios, nominal_gdps, baseline)
    return SubmissionPayload(debt_ratios, nominal_gdps, bdi, x_norm, g,
                             vintage.vintage_id, vintage.dataset_hash)


def _recompute_check(payload: SubmissionPayload, baseline: BaselineRef
                     ) -> tuple[int, ...]:
    """The kernel's weights for the payload's inputs; raises
    InconsistentPayload unless its bdi, x_norm and g are what they give."""
    weights, bdi, x_norm, _, g = index_kernel(
        payload.debt_ratios, payload.nominal_gdps, baseline)
    if (bdi, x_norm, g) != (payload.bdi, payload.x_norm, payload.g):
        raise InconsistentPayload(
            f"recomputed (bdi={fp.to_str(bdi)}, x={fp.to_str(x_norm)}, "
            f"g={fp.to_str(g)}) != submitted"
        )
    return weights


def submit(
    record: CycleRecord,
    submission: OracleSubmission,
    baseline: BaselineRef,
) -> CycleRecord:
    """Accept a submission from the roster after its vintage and consistency checks."""
    if record.status is not WindowStatus.PENDING:
        raise SubmissionsClosed("submissions close when the challenge window opens")
    if submission.operator_id not in ORACLE_OPERATORS:
        raise UnknownOperator(submission.operator_id)
    if any(s.operator_id == submission.operator_id for s in record.submissions):
        raise DuplicateSubmission(submission.operator_id)
    check_vintage(submission.payload.vintage_id, submission.payload.dataset_hash)
    _recompute_check(submission.payload, baseline)
    record.submissions.append(submission)
    return record


def aggregate_median(record: CycleRecord) -> SubmissionPayload:
    """Lower-median of submitted BDIs: the chosen payload as it was submitted.

    Only submitted values can become canonical: for an even count the
    lower of the two middle values is taken, never a synthetic average.
    `submit` has already re-checked the payload's X and g against its BDI.
    """
    if not record.submissions:
        raise NoSubmissions("no submissions to aggregate")
    ranked = sorted(record.submissions, key=lambda s: (s.payload.bdi, s.signature))
    record.median_payload = ranked[(len(ranked) - 1) // 2].payload  # lower median
    return record.median_payload


def open_window(record: CycleRecord, now: datetime) -> CycleRecord:
    """Publish the median and start the 72-hour challenge window."""
    if record.median_payload is None:
        raise NoSubmissions("aggregate before opening the window")
    if record.status is not WindowStatus.PENDING:
        raise WindowClosed("window already opened")
    record.opened_at = now
    record.status = WindowStatus.OPEN
    return record


def flag(record: CycleRecord, operator_id: str, issue_code: str, comment: str
         ) -> CycleRecord:
    """Record a discrepancy flag from an operator on the roster; two
    distinct operators on one issue code constitute a valid dispute."""
    if record.status is not WindowStatus.OPEN:
        raise WindowClosed(f"window is {record.status.value}")
    if operator_id not in ORACLE_OPERATORS:
        raise UnknownOperator(operator_id)
    record.flags.append(Flag(operator_id, issue_code, comment))
    by_code: dict[str, set[str]] = {}
    for f in record.flags:
        by_code.setdefault(f.issue_code, set()).add(f.operator_id)
    if any(len(ops) >= 2 for ops in by_code.values()):
        record.status = WindowStatus.DISPUTED
    return record


def resolve(record: CycleRecord, now: datetime) -> CycleRecord:
    """Move the window on by the time alone.

    An open window expires clean, and so becomes executable, once 72 hours
    have passed; a disputed one lapses to the last confirmed g once more
    than 14 days have. Any other state, or an earlier time, is left as it is.
    """
    if (record.status is WindowStatus.OPEN
            and now >= record.opened_at + CHALLENGE_WINDOW):
        record.status = WindowStatus.EXPIRED_CLEAN
    elif (record.status is WindowStatus.DISPUTED
            and now > record.opened_at + CORRECTION_DEADLINE):
        record.status = WindowStatus.LAPSED
    return record


def execute(
    record: CycleRecord,
    ledger_state: LedgerState,
    params: PolicyParams,
    approvals: Iterable[str],
) -> tuple[CycleRecord, LedgerState]:
    """Confirm the median g and refresh the ledger's annual factors.

    Requires a cleanly expired window and 5-of-8 executor approvals.
    """
    if record.status is not WindowStatus.EXPIRED_CLEAN:
        raise NotExecutable(f"window is {record.status.value}")
    EXECUTOR_POLICY.check(approvals, "executor")
    record.status = WindowStatus.EXECUTED
    return record, begin_cycle(ledger_state, params, record.confirmed_g,
                               record.cycle_year)


def settle_cycle(
    year: int,
    submissions: Iterable[OracleSubmission],
    ledger_state: LedgerState,
    params: PolicyParams,
    baseline: BaselineRef,
    clock: VirtualClock,
    approvals: Iterable[str],
    flags: Iterable[Flag] = (),
) -> tuple[CycleRecord, LedgerState]:
    """Run one annual cycle from intake to its new ledger state.

    The prior confirmed g is the ledger's, the g its factors in force were
    derived at, or 0 before the first cycle. Intake, lower median and
    window; then the window's flags. An undisputed window is resolved an
    hour after the challenge window closes and executed; a disputed one is
    resolved a day after the correction deadline and lapses to the prior
    confirmed g: a first cycle begins at that g, a later one keeps the
    factors in force.
    """
    factors = ledger_state.annual_factors
    record = CycleRecord(cycle_year=year,
                         prior_confirmed_g=factors.g_used if factors else 0)
    for submission in submissions:
        record = submit(record, submission, baseline)
    aggregate_median(record)
    open_window(record, clock.now())
    for f in flags:
        flag(record, f.operator_id, f.issue_code, f.comment)
    wait = (CORRECTION_DEADLINE + timedelta(days=1)
            if record.status is WindowStatus.DISPUTED
            else CHALLENGE_WINDOW + timedelta(hours=1))
    clock.advance_hours(wait // timedelta(hours=1))
    record = resolve(record, clock.now())
    if record.status is not WindowStatus.LAPSED:
        return execute(record, ledger_state, params, approvals)
    if factors is None:
        return record, begin_cycle(ledger_state, params, record.confirmed_g, year)
    return record, carry_cycle(ledger_state, year)

