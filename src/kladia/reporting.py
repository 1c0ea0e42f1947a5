"""Policy Report assembly, hash commitment, and verification.

A settled cycle's report has one shape: `build_report` renders it from the
cycle record, whose median is always set, and from the slice of the event
log that the commitment's anchor cuts (`_report_slice`). Its index fields
repeat the median, the kernel's weights and the baseline (`_index_fields`).
Reports serialize canonically and commit to a SHA-256 content hash.
Verification checks that hash, re-checks the report's median as intake
does and its index fields against it (`recomputes`, which `simulator.run`
also calls on each year's report), and compares the report with the same
slice of the event log: the cycle event's year, the g in force, and the
actions `build_report` walked. Nothing is replayed, and the median is not
checked against the signed submissions; replaying the slice is open item 2
of ROADMAP.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from . import fixedpoint as fp
from .canonical import canonical_bytes, sha256_hex
from .debt_index import BaselineRef, weighted_bdi
from .errors import IncompleteCycle, MalformedFile
from .ledger import last_cycle
from .oracle_protocol import CycleRecord, WindowStatus, _recompute_check, read_payload
from .weo_ingest import _SHA256_HEX_RE, ALL_BLOCS

REQUIRED_FIELDS = (
    "cycle_year",
    "x_norm",
    "g",
    "oracle_submissions",
    "median",
    "governance_outcomes",
    "executed_actions",
    "signer_set",
    "action_hashes",
    "raw_inputs",
    "bdi",
    "bdi_ref",
    "weights",
    "vintage_id",
    "dataset_hash",
    "fallback_note",
    "carried_forward_blocs",
    "carried_forward",
    "low_submission_count",
    "lambda",
)


@dataclass(frozen=True)
class ReportCommitment:
    """A report's SHA-256 and the journal position it was cut at; each field
    is checked when the commitment is made (MalformedFile names it)."""

    content_hash: str
    reference_link: str
    ledger_anchor: int  # 1 <= anchor <= len(event_log)

    def __post_init__(self):
        if not (isinstance(self.content_hash, str)
                and _SHA256_HEX_RE.fullmatch(self.content_hash)):
            raise MalformedFile("content_hash: not 64 lowercase hex characters")
        if type(self.ledger_anchor) is not int or self.ledger_anchor < 1:
            raise MalformedFile("ledger_anchor: not a positive int")
        if not isinstance(self.reference_link, str):
            raise MalformedFile("reference_link: not a string")


# each logged op that moves supply: the (action, input) pairs it carries, in
# order, where the input holds the action's amount. A month carries its three
# flows; a zero month amount is a flow that did not run.
SUPPLY_ACTIONS = {
    "release_escrow": (("release_escrow", "released"),),
    "spend_reserve": (("spend_reserve", "amount"),),
    "relock": (("relock", "amount"),),
    "advance_month": (("vest_month", "vested"), ("emit_staking", "emitted"),
                      ("burn", "burned")),
}


def _actions(event: dict) -> list[tuple[str, int]]:
    """The (action, amount) pairs a logged event carries, in order; raises
    TypeError for an amount that is not an int."""
    op = event["op"]
    pairs = [(action, event["inputs"][key])
             for action, key in SUPPLY_ACTIONS.get(op, ())]
    if any(type(amount) is not int for _, amount in pairs):
        raise TypeError(f"{op}: an amount is not an int")
    return [(action, amount) for action, amount in pairs
            if op != "advance_month" or amount]


def _executed(events: Sequence[dict]) -> tuple[list[dict], list[str], list[str]]:
    """A cycle's `executed_actions`, `action_hashes` and `signer_set`, in one
    walk over its events; positions count from the first of them."""
    executed_actions = []
    action_hashes = []
    signers = set()
    for pos, event in enumerate(events):
        signers.update(event.get("approvals", ()))
        for action, amount in _actions(event):
            executed_actions.append(
                {"op": action, "amount": amount, "event_position": pos})
            action_hashes.append(event["state_hash"])
    return executed_actions, action_hashes, sorted(signers)


def _report_slice(event_log: Sequence[dict], anchor: int) -> tuple[int, int]:
    """Where the events a report covers start and end in `event_log`: from
    the last `begin_cycle` or `carry_cycle` before `anchor`, the position the
    report was cut at, up to it. Raises ValueError when the log has no such
    slice."""
    if not 1 <= anchor <= len(event_log):
        raise ValueError(f"ledger anchor {anchor!r} is outside the event log")
    start = last_cycle(event_log, anchor)
    if start is None:
        raise ValueError(f"no cycle event before ledger anchor {anchor}")
    return start, anchor


def _index_fields(median_view: dict, weights: Sequence[int],
                  baseline: BaselineRef) -> dict:
    """A report's eight index fields: the median's inputs, bdi, x_norm,
    vintage id and dataset hash as its canonical view spells them, the
    kernel's weights and the baseline's bdi_ref and lambda."""
    debt, gdp = median_view["debt_ratios"], median_view["nominal_gdps"]
    return {
        "x_norm": median_view["x_norm"],
        "raw_inputs": {code: {"debt_ratio": d, "nominal_gdp": gdp[code]}
                       for code, d in debt.items()},
        "bdi": median_view["bdi"],
        "bdi_ref": fp.to_str(baseline.bdi_ref),
        "weights": {b._value_: fp.to_str(w) for b, w in zip(ALL_BLOCS, weights)},
        "vintage_id": median_view["vintage_id"],
        "dataset_hash": median_view["dataset_hash"],
        "lambda": fp.to_str(baseline.lam),
    }


def build_report(
    cycle_record: CycleRecord,
    event_log: Sequence[dict],
    anchor: int,
    governance_log: Sequence[dict],
    baseline: BaselineRef,
) -> dict:
    """Assemble the annual Policy Report for a settled cycle, whose events
    are the slice of `event_log` that `verify` cuts at the commitment's
    `anchor` (`_report_slice`)."""
    status = cycle_record.window.status
    if status not in (WindowStatus.EXECUTED, WindowStatus.LAPSED):
        raise IncompleteCycle(f"cycle is {status.value}")
    median = cycle_record.median_payload
    median_view = median.canonical()
    start, end = _report_slice(event_log, anchor)
    executed_actions, action_hashes, signer_set = _executed(event_log[start:end])
    weights = weighted_bdi(median.debt_ratios, median.nominal_gdps)[0]
    return {
        "cycle_year": cycle_record.cycle_year,
        "g": fp.to_str(cycle_record.confirmed_g),
        "oracle_submissions": [s.canonical() for s in cycle_record.submissions],
        "median": median_view,
        "governance_outcomes": list(governance_log),
        "executed_actions": executed_actions,
        "signer_set": signer_set,
        "action_hashes": action_hashes,
        **_index_fields(median_view, weights, baseline),
        "fallback_note": None,
        "carried_forward_blocs": [],
        "carried_forward": cycle_record.carried_forward,
        "low_submission_count": len(cycle_record.submissions) < 3,
    }


def check_schema(report: dict) -> list[str]:
    return [f for f in REQUIRED_FIELDS if f not in report]


def serialize(report: dict) -> bytes:
    """Canonical report bytes: what is committed, written and verified."""
    missing = check_schema(report)
    if missing:
        raise IncompleteCycle(f"report missing fields: {missing}")
    return canonical_bytes(report)


def commit(report_bytes: bytes, ledger_anchor: int) -> ReportCommitment:
    """Hash-commit serialized report bytes cut at `ledger_anchor`."""
    return ReportCommitment(
        content_hash=sha256_hex(report_bytes),
        reference_link="",
        ledger_anchor=ledger_anchor,
    )


def recomputes(report: dict, baseline: BaselineRef) -> bool:
    """Whether the report's median reads as a payload whose inputs give its
    bdi, x_norm and g, its 14 inputs and those three spelled as `fp.to_str`
    spells them, its index fields are what `_index_fields` makes of it, and
    its g is the median's unless it carries g forward; never raises."""
    try:
        view = report["median"]
        payload = read_payload(view, "median")
        fields = _index_fields(view, _recompute_check(payload, baseline), baseline)
        spelled = (*view["debt_ratios"].values(), *view["nominal_gdps"].values(),
                   view["bdi"], view["x_norm"], view["g"])
        return (fields.items() <= report.items()
                and all(map(fp.CANONICAL.fullmatch, spelled))
                and (report["carried_forward"] is True or report["g"] == view["g"]))
    except Exception:
        return False


def verify(
    report_bytes: bytes,
    commitment: ReportCommitment,
    baseline: BaselineRef,
    event_log: Sequence[dict],
) -> tuple[bool, list[str]]:
    """Three-way check: hash match, internal recomputation, reconciliation.

    The recomputation (`recomputes`) re-checks the median under the baseline
    and requires the index fields to repeat it and the baseline. The slice
    of the whole event log (`_report_slice`) must walk to the report's executed
    actions, action hashes and signer set exactly, its first event must log
    its `cycle_year`, and the report's `g` must be the g in force: that of
    the slice's own `begin_cycle`, or for a `carry_cycle` slice that of the
    last `begin_cycle` before it (CycleMismatch). A log without that slice
    or that g, or with a malformed entry, is MalformedEventLog.
    Returns (ok, discrepancy codes); never raises on bad input.
    """
    discrepancies: list[str] = []

    if sha256_hex(report_bytes) != commitment.content_hash:
        discrepancies.append("HashMismatch")

    try:
        report: Any = json.loads(report_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False, discrepancies + ["Unparseable"]
    if not isinstance(report, dict):
        return False, discrepancies + ["SchemaIncomplete"]

    missing = check_schema(report)
    if missing:
        discrepancies.append("SchemaIncomplete")

    if not recomputes(report, baseline):
        discrepancies.append("RecomputeMismatch")

    try:
        start, end = _report_slice(event_log, commitment.ledger_anchor)
        executed = _executed(event_log[start:end])
        in_force = last_cycle(event_log, start + 1, ("begin_cycle",))
        if in_force is None:
            raise ValueError(f"no begin_cycle at or before event {start}")
        year = event_log[start]["inputs"]["year"]
        g = event_log[in_force]["inputs"]["g"]
        if type(year) is not int or type(g) is not int:
            raise TypeError("the cycle event's year or the g in force is not an int")
    except (TypeError, KeyError, ValueError, AttributeError):
        return False, discrepancies + ["MalformedEventLog"]
    if executed != tuple(map(report.get, (
            "executed_actions", "action_hashes", "signer_set"))):
        discrepancies.append("SupplyReconciliationGap")
    if year != report.get("cycle_year") or fp.to_str(g) != report.get("g"):
        discrepancies.append("CycleMismatch")

    return not discrepancies, discrepancies
