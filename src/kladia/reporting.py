"""Policy Report assembly, hash commitment, and verification.

Reports serialize through the canonical form and commit to a SHA-256
content hash. Verification re-derives the index chain from the report's
own raw inputs and reconciles reported supply actions against the
replayed event log, so any single-field tampering or omitted event is
detected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from . import fixedpoint as fp
from .canonical import canonical_bytes, sha256_hex
from .debt_index import BaselineRef, compute_bdi, compute_weights, normalize, policy_factor
from .errors import IncompleteCycle
from .oracle_protocol import CycleRecord, WindowStatus
from .weo_ingest import ALL_BLOCS, Bloc, BlocObservation, ObservationStatus, WeoVintage

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

ISSUANCE_OPS = ("vest_month", "release_escrow", "emit_staking", "spend_reserve")


@dataclass(frozen=True)
class ReportCommitment:
    content_hash: str
    reference_link: str
    ledger_anchor: int  # event-log position at commit time


def _action_amount(event: dict) -> int:
    inputs = event["inputs"]
    if event["op"] == "vest_month":
        return inputs["amount"]
    if event["op"] == "release_escrow":
        return inputs["released"]
    if event["op"] == "emit_staking":
        return inputs["emission"]
    if event["op"] == "spend_reserve":
        return inputs["amount"]
    if event["op"] == "burn":
        return inputs["amount"]
    if event["op"] == "relock":
        return inputs["amount"]
    return 0


def build_report(
    cycle_record: CycleRecord,
    ledger_events: Sequence[dict],
    governance_log: Sequence[dict],
    baseline: BaselineRef,
    carried_forward_blocs: Sequence[Bloc] = (),
    fallback_note: Optional[str] = None,
) -> dict:
    """Assemble the annual Policy Report for a settled cycle."""
    status = cycle_record.window.status
    if status not in (WindowStatus.EXECUTED, WindowStatus.LAPSED):
        raise IncompleteCycle(f"cycle is {status.value}")
    median = cycle_record.median_payload
    if status is WindowStatus.EXECUTED and median is None:
        raise IncompleteCycle("executed cycle lacks a median payload")

    executed_actions = []
    action_hashes = []
    for pos, event in enumerate(ledger_events):
        if event["op"] in ISSUANCE_OPS + ("burn", "relock"):
            executed_actions.append(
                {
                    "op": event["op"],
                    "amount": _action_amount(event),
                    "event_position": pos,
                }
            )
            action_hashes.append(event["state_hash"])

    signer_set = sorted(
        {sig for event in ledger_events for sig in event.get("approvals", [])}
    )

    if median is not None:
        vintage = WeoVintage(median.vintage_id,
                             baseline.genesis_vintage.publication_date,
                             median.dataset_hash)
        obs = [
            BlocObservation(
                b, median.debt_ratios[b], median.nominal_gdps[b], vintage,
                ObservationStatus.OBSERVED,
            )
            for b in ALL_BLOCS
        ]
        weights = compute_weights(obs)
        raw_inputs = {
            b.value: {
                "debt_ratio": fp.to_str(median.debt_ratios[b]),
                "nominal_gdp": fp.to_str(median.nominal_gdps[b]),
            }
            for b in ALL_BLOCS
        }
        index_fields = {
            "bdi": fp.to_str(median.bdi),
            "x_norm": fp.to_str(median.x_norm),
            "g": fp.to_str(median.g),
            "weights": {b.value: fp.to_str(w) for b, w in weights.items()},
            "vintage_id": median.vintage_id,
            "dataset_hash": median.dataset_hash,
        }
    else:
        raw_inputs = {}
        index_fields = {
            "bdi": None, "x_norm": None, "g": None, "weights": {},
            "vintage_id": None, "dataset_hash": None,
        }

    confirmed = cycle_record.confirmed_g
    return {
        "cycle_year": cycle_record.cycle_year,
        "x_norm": index_fields["x_norm"],
        "g": fp.to_str(confirmed) if confirmed is not None else None,
        "oracle_submissions": [
            {"operator": s.operator_id, "signature": s.signature,
             "timestamp": s.timestamp.isoformat(), "payload": s.payload.canonical()}
            for s in cycle_record.submissions
        ],
        "median": median.canonical() if median else None,
        "governance_outcomes": list(governance_log),
        "executed_actions": executed_actions,
        "signer_set": signer_set,
        "action_hashes": action_hashes,
        "raw_inputs": raw_inputs,
        "bdi": index_fields["bdi"],
        "bdi_ref": fp.to_str(baseline.bdi_ref),
        "weights": index_fields["weights"],
        "vintage_id": index_fields["vintage_id"],
        "dataset_hash": index_fields["dataset_hash"],
        "fallback_note": fallback_note,
        "carried_forward_blocs": sorted(b.value for b in carried_forward_blocs),
        "carried_forward": cycle_record.carried_forward,
        "low_submission_count": len(cycle_record.submissions) < 3,
        "lambda": None,  # populated by commit-time caller when known
    }


def check_schema(report: dict) -> list[str]:
    return [f for f in REQUIRED_FIELDS if f not in report]


def commit(report: dict, reference_link: str = "", ledger_anchor: int = 0
           ) -> ReportCommitment:
    """Hash-commit the canonical report bytes."""
    missing = check_schema(report)
    if missing:
        raise IncompleteCycle(f"report missing fields: {missing}")
    return ReportCommitment(
        content_hash=sha256_hex(canonical_bytes(report)),
        reference_link=reference_link,
        ledger_anchor=ledger_anchor,
    )


def serialize(report: dict) -> bytes:
    return canonical_bytes(report)


def verify(
    report_bytes: bytes,
    commitment: ReportCommitment,
    baseline: Optional[BaselineRef] = None,
    lam: Optional[int] = None,
    ledger_events: Optional[Sequence[dict]] = None,
) -> tuple[bool, list[str]]:
    """Three-way check: hash match, internal recomputation, reconciliation.

    Returns (ok, discrepancy codes); never raises on bad input.
    """
    discrepancies: list[str] = []

    if sha256_hex(report_bytes) != commitment.content_hash:
        discrepancies.append("HashMismatch")

    try:
        report: Any = json.loads(report_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False, discrepancies + ["Unparseable"]

    missing = check_schema(report)
    if missing:
        discrepancies.append("SchemaIncomplete")

    if (
        baseline is not None
        and lam is not None
        and report.get("raw_inputs")
        and report.get("bdi") is not None
        and not report.get("carried_forward", False)
    ):
        try:
            obs = [
                BlocObservation(
                    b,
                    fp.from_str(report["raw_inputs"][b.value]["debt_ratio"]),
                    fp.from_str(report["raw_inputs"][b.value]["nominal_gdp"]),
                    baseline.genesis_vintage,
                    ObservationStatus.OBSERVED,
                )
                for b in ALL_BLOCS
            ]
            weights = compute_weights(obs)
            bdi = compute_bdi(obs, weights)
            x_norm, x_excess = normalize(bdi, baseline)
            g = policy_factor(x_excess, lam)
            if (
                fp.to_str(bdi) != report["bdi"]
                or fp.to_str(x_norm) != report["x_norm"]
                or fp.to_str(g) != report["g"]
            ):
                discrepancies.append("RecomputeMismatch")
        except Exception:
            discrepancies.append("RecomputeMismatch")

    if ledger_events is not None:
        ledger_issued = sum(
            _action_amount(e) for e in ledger_events if e["op"] in ISSUANCE_OPS
        )
        ledger_burned = sum(
            _action_amount(e) for e in ledger_events if e["op"] == "burn"
        )
        ledger_relocked = sum(
            _action_amount(e) for e in ledger_events if e["op"] == "relock"
        )
        try:
            reported = report.get("executed_actions", [])
            rep_issued = sum(
                a["amount"] for a in reported if a.get("op") in ISSUANCE_OPS
            )
            rep_burned = sum(a["amount"] for a in reported if a.get("op") == "burn")
            rep_relocked = sum(
                a["amount"] for a in reported if a.get("op") == "relock"
            )
            mismatch = (rep_issued - rep_burned - rep_relocked) != (
                ledger_issued - ledger_burned - ledger_relocked
            )
        except (TypeError, KeyError, AttributeError):
            mismatch = True
        if mismatch:
            discrepancies.append("SupplyReconciliationGap")

    return not discrepancies, discrepancies
