"""Policy Report assembly, hash commitment, and verification.

A settled cycle's report has one shape: `build_report` renders it from the
cycle record, whose median is always set, and from the slice of the event
log that the commitment's anchor cuts (`_report_slice`). Reports serialize
through the canonical form and commit to a SHA-256 content hash.
Verification checks that hash, re-derives bdi, x_norm and the weights, and
g unless the report carries g forward, from the report's own raw inputs
under the baseline (`recomputes`, which `simulator.run` also calls on each
year's report before committing it), and compares the report with the same
slice of the event log: the cycle event's year, the g in force, and the
actions `build_report` walked. Nothing is replayed, so an edit to another
event that logs no action passes it; replaying the slice is open item 2 of
ROADMAP.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from . import fixedpoint as fp
from .canonical import canonical_bytes, sha256_hex
from .debt_index import BaselineRef, index_kernel, weighted_bdi
from .errors import IncompleteCycle
from .ledger import last_cycle
from .oracle_protocol import CycleRecord, WindowStatus
from .weo_ingest import ALL_BLOCS

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
    content_hash: str
    reference_link: str
    ledger_anchor: int  # event-log position at commit time


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
    the last `begin_cycle` or `carry_cycle` before `anchor` up to it; an
    anchor of 0 is the log's end. Raises ValueError when the log has no such
    slice."""
    if type(anchor) is not int or not 0 <= anchor <= len(event_log):
        raise ValueError(f"ledger anchor {anchor!r} is outside the event log")
    end = anchor or len(event_log)
    start = last_cycle(event_log, end)
    if start is None:
        raise ValueError(f"no cycle event before ledger anchor {end}")
    return start, end


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
    start, end = _report_slice(event_log, anchor)
    executed_actions, action_hashes, signer_set = _executed(event_log[start:end])
    weights = weighted_bdi(median.debt_ratios, median.nominal_gdps)[0]
    return {
        "cycle_year": cycle_record.cycle_year,
        "x_norm": fp.to_str(median.x_norm),
        "g": fp.to_str(cycle_record.confirmed_g),
        "oracle_submissions": [s.canonical() for s in cycle_record.submissions],
        "median": median.canonical(),
        "governance_outcomes": list(governance_log),
        "executed_actions": executed_actions,
        "signer_set": signer_set,
        "action_hashes": action_hashes,
        "raw_inputs": {
            b._value_: {"debt_ratio": fp.to_str(debt), "nominal_gdp": fp.to_str(gdp)}
            for b, debt, gdp in zip(ALL_BLOCS, median.debt_ratios, median.nominal_gdps)
        },
        "bdi": fp.to_str(median.bdi),
        "bdi_ref": fp.to_str(baseline.bdi_ref),
        "weights": {b._value_: fp.to_str(w) for b, w in zip(ALL_BLOCS, weights)},
        "vintage_id": median.vintage_id,
        "dataset_hash": median.dataset_hash,
        "fallback_note": None,
        "carried_forward_blocs": [],
        "carried_forward": cycle_record.carried_forward,
        "low_submission_count": len(cycle_record.submissions) < 3,
        "lambda": fp.to_str(baseline.lam),
    }


def check_schema(report: dict) -> list[str]:
    return [f for f in REQUIRED_FIELDS if f not in report]


def serialize(report: dict) -> bytes:
    """Canonical report bytes: what is committed, written and verified."""
    missing = check_schema(report)
    if missing:
        raise IncompleteCycle(f"report missing fields: {missing}")
    return canonical_bytes(report)


def commit(report_bytes: bytes, ledger_anchor: int = 0) -> ReportCommitment:
    """Hash-commit serialized report bytes."""
    return ReportCommitment(
        content_hash=sha256_hex(report_bytes),
        reference_link="",
        ledger_anchor=ledger_anchor,
    )


def recomputes(report: dict, baseline: BaselineRef) -> bool:
    """Whether the report's lambda and bdi_ref are the baseline's, and its
    bdi, x_norm and weights, and its g unless it carries g forward, are what
    its raw inputs give; never raises."""
    try:
        if (fp.from_str(report["lambda"]) != baseline.lam
                or report["bdi_ref"] != fp.to_str(baseline.bdi_ref)):
            return False
        raw = [report["raw_inputs"][b._value_] for b in ALL_BLOCS]
        weights, bdi, x_norm, _, g = index_kernel(
            tuple(fp.from_str(r["debt_ratio"]) for r in raw),
            tuple(fp.from_str(r["nominal_gdp"]) for r in raw),
            baseline)
        return (
            fp.to_str(bdi) == report["bdi"]
            and fp.to_str(x_norm) == report["x_norm"]
            and (report["carried_forward"] is True or fp.to_str(g) == report["g"])
            and report["weights"] == {
                b._value_: fp.to_str(w) for b, w in zip(ALL_BLOCS, weights)}
        )
    except Exception:
        return False


def verify(
    report_bytes: bytes,
    commitment: ReportCommitment,
    baseline: BaselineRef,
    event_log: Sequence[dict],
) -> tuple[bool, list[str]]:
    """Three-way check: hash match, internal recomputation, reconciliation.

    The recomputation runs under the baseline's lambda; a report whose
    lambda or bdi_ref is not the baseline's fails it too. The report's slice
    of the whole event log (`_report_slice`) must walk to its executed
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
