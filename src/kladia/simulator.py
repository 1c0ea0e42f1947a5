"""Deterministic multi-year scenario driver.

Synthesizes debt trajectories, fee streams, oracle behaviors, disputes,
and governance events, then drives the full pipeline: ingestion ->
index -> oracle cycle -> ledger months -> report. Randomness comes from
SplitMix64 (defined below by algorithm, not by library) so identical
scenarios replay to byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Optional

from . import fixedpoint as fp
from . import oracle_protocol as oracle
from . import reporting
from .canonical import content_hash, sha256_hex
from .clock import VirtualClock
from .debt_index import BaselineRef, weighted_bdi
from .errors import ScenarioInvalid, ZeroCap
from .ledger import POLICIES, BucketKind, advance_month, genesis, release_escrow
from .policy import PolicyParams
from .weo_ingest import (
    ALL_BLOCS,
    Bloc,
    BlocObservation,
    ObservationStatus,
    WeoVintage,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64)
    z = state'; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive); integer-only."""
        if hi < lo:
            raise ValueError("hi < lo")
        return lo + self.next_u64() % (hi - lo + 1)


# Anchor macro levels for synthetic trajectories, as decimal strings.
_BASE_DEBT = {
    Bloc.US: "120", Bloc.EA20: "90", Bloc.JP: "250", Bloc.UK: "100",
    Bloc.CA: "105", Bloc.AU: "45", Bloc.KR: "55",
}
_BASE_GDP = {
    Bloc.US: "27000", Bloc.EA20: "15000", Bloc.JP: "4200", Bloc.UK: "3300",
    Bloc.CA: "2100", Bloc.AU: "1700", Bloc.KR: "1800",
}
_BASIS_POINT = fp.from_str("0.0001")
_LEVEL_FLOOR = fp.from_str("1")
_OUTLIER_SKEW = fp.from_str("1.1")


@dataclass(frozen=True)
class Scenario:
    seed: int
    years: int
    debt_drift_bp: tuple[int, int] = (-200, 600)   # per-year, per-bloc, basis points
    gdp_drift_bp: tuple[int, int] = (100, 500)
    fee_range_kld: tuple[int, int] = (0, 2_000_000)  # per month
    operators: tuple[str, ...] = ("op-1", "op-2", "op-3", "op-4", "op-5")
    oracle_behaviors: dict[str, str] = field(default_factory=dict)  # honest|outlier|missing
    dispute_years: tuple[int, ...] = ()            # years with an uncorrected dispute
    governance_script: tuple[dict, ...] = ()       # {"year", "changes": {name: str}}
    params: Optional[PolicyParams] = None

    def validate(self) -> None:
        if self.years <= 0:
            raise ScenarioInvalid("years must be positive")
        if not self.operators:
            raise ScenarioInvalid("need at least one operator")
        for op, tag in self.oracle_behaviors.items():
            if op not in self.operators:
                raise ScenarioInvalid(f"behavior for unknown operator {op}")
            if tag not in ("honest", "outlier", "missing"):
                raise ScenarioInvalid(f"unknown behavior {tag!r}")
        if any(y < 1 or y > self.years for y in self.dispute_years):
            raise ScenarioInvalid("dispute year outside horizon")


@dataclass
class Trace:
    rows: list[dict] = field(default_factory=list)
    cycles: list[dict] = field(default_factory=list)
    report_commitments: list[str] = field(default_factory=list)

    def trace_hash(self) -> str:
        return content_hash(
            {"rows": self.rows, "cycles": self.cycles,
             "commitments": self.report_commitments}
        )

    def to_table(self) -> str:
        cols = ["month", "year", "g", "circulating", "burned", "escrow",
                "released", "emitted", "burned_month", "vested"]
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(str(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _gen_observations(
    rng: SplitMix64,
    prior: dict[Bloc, tuple[int, int]],
    drift_debt: tuple[int, int],
    drift_gdp: tuple[int, int],
    vintage: WeoVintage,
) -> tuple[list[BlocObservation], dict[Bloc, tuple[int, int]]]:
    obs = []
    levels = {}
    for bloc in ALL_BLOCS:
        debt, gdp = prior[bloc]
        debt = fp.scale_amount_down(
            debt, fp.ONE + _BASIS_POINT * rng.randint(*drift_debt)
        )
        gdp = fp.scale_amount_down(
            gdp, fp.ONE + _BASIS_POINT * rng.randint(*drift_gdp)
        )
        debt = max(debt, _LEVEL_FLOOR)
        gdp = max(gdp, _LEVEL_FLOOR)
        levels[bloc] = (debt, gdp)
        obs.append(
            BlocObservation(bloc, debt, gdp, vintage, ObservationStatus.OBSERVED)
        )
    return obs, levels


def run(scenario: Scenario) -> Trace:
    scenario.validate()
    rng = SplitMix64(scenario.seed)
    clock = VirtualClock(datetime(2026, 1, 1, tzinfo=timezone.utc))

    genesis_raw = b"synthetic-genesis-" + str(scenario.seed).encode()
    genesis_vintage = WeoVintage(
        "2025-October", date(2025, 10, 15), sha256_hex(genesis_raw)
    )
    levels = {
        b: (fp.from_str(_BASE_DEBT[b]), fp.from_str(_BASE_GDP[b]))
        for b in ALL_BLOCS
    }
    debt_ratios, nominal_gdps = zip(*(levels[b] for b in ALL_BLOCS))
    baseline = BaselineRef(bdi_ref=weighted_bdi(debt_ratios, nominal_gdps)[1],
                           genesis_vintage=genesis_vintage, lam=fp.ONE)

    state = genesis()
    params = scenario.params or PolicyParams()
    executor = oracle.EXECUTOR_POLICY
    approvals = executor.signer_set[:executor.threshold]
    escrow_signers = POLICIES[BucketKind.ECOSYSTEM_ESCROW].signer_set

    trace = Trace()
    governance_log: list[dict] = []
    gov_by_year = {}
    for event in scenario.governance_script:
        gov_by_year.setdefault(event["year"], []).append(event)

    for year in range(1, scenario.years + 1):
        vintage = WeoVintage(
            f"{2025 + year}-October",
            date(2025 + year, 10, 15),
            sha256_hex(f"synthetic-{scenario.seed}-{year}".encode()),
        )
        true_obs, levels = _gen_observations(
            rng, levels, scenario.debt_drift_bp, scenario.gdp_drift_bp, vintage
        )

        # operators with one behavior publish the same inputs, hence the same
        # payload; each still signs its own submission and passes the re-check
        payloads: dict[str, oracle.SubmissionPayload] = {}
        submissions = []
        for op in scenario.operators:
            behavior = scenario.oracle_behaviors.get(op, "honest")
            if behavior == "missing":
                continue
            payload = payloads.get(behavior)
            if payload is None:
                obs = true_obs
                if behavior == "outlier":
                    # internally consistent but skewed inputs; the median absorbs it
                    obs = [
                        BlocObservation(
                            o.bloc,
                            fp.scale_amount_down(o.debt_ratio, _OUTLIER_SKEW),
                            o.nominal_gdp, o.source_vintage, o.status,
                        )
                        for o in true_obs
                    ]
                payload = payloads[behavior] = oracle.build_payload(
                    obs, baseline, vintage)
            submissions.append(oracle.OracleSubmission.sign(op, payload, clock.now()))

        flags = ()
        if year in scenario.dispute_years and len(submissions) >= 2:
            first, second = (s.operator_id for s in submissions[:2])
            flags = (oracle.Flag(first, "data-mismatch", "values off vs source"),
                     oracle.Flag(second, "data-mismatch", "confirmed mismatch"))
        event_start = state.n_events
        record, state = oracle.settle_cycle(
            year, submissions, scenario.operators, state, params,
            baseline, clock, approvals, flags,
        )

        for event in gov_by_year.get(year, []):
            governance_log.append(
                {"year": year, "changes": dict(event["changes"]), "status": "scripted"}
            )
            params = params.with_changes(
                **{k: fp.from_str(v) for k, v in event["changes"].items()}
            )

        g_str = fp.to_str(record.confirmed_g)
        for month in range(12):
            fees = rng.randint(*scenario.fee_range_kld) * 10 ** 6
            released = 0
            cap = state.annual_factors.escrow_cap if state.annual_factors else 0
            if cap > 0:
                try:
                    state, released = release_escrow(state, cap, escrow_signers[:5])
                except ZeroCap:
                    released = 0
            state, summary = advance_month(state, fees)
            trace.rows.append(
                {
                    "month": state.month_index,
                    "year": year,
                    "g": g_str,
                    "circulating": state.circulating,
                    "burned": state.burned_cumulative,
                    "escrow": state.buckets[BucketKind.ECOSYSTEM_ESCROW],
                    "released": released,
                    "emitted": summary["emitted"],
                    "burned_month": summary["burned"],
                    "vested": summary["vested"],
                }
            )
            clock.advance_days(30)

        trace.cycles.append(record.canonical())
        events = state.journal[event_start:state.n_events]
        report = reporting.build_report(record, events, governance_log, baseline)
        if not reporting.recomputes(report, baseline):
            raise AssertionError(
                f"cycle {year} report failed verification: ['RecomputeMismatch']")
        commitment = reporting.commit(reporting.serialize(report))
        trace.report_commitments.append(commitment.content_hash)

    return trace
