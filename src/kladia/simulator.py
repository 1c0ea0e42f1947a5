"""Deterministic multi-year scenario driver.

Synthesizes debt trajectories, fee streams, oracle behaviors, disputes,
and governance events, then drives the full pipeline: ingestion ->
index -> oracle cycle -> ledger months -> report. Randomness comes from
SplitMix64 (defined below by algorithm, not by library) so identical
scenarios replay to byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from datetime import date, datetime, timezone
from typing import Optional

from . import fixedpoint as fp
from . import oracle_protocol as oracle
from . import reporting
from .canonical import content_hash, sha256_hex
from .clock import VirtualClock
from .debt_index import BaselineRef, weighted_bdi
from .errors import ScenarioInvalid, ZeroCap
from .ledger import ESCROW_POLICY, BucketKind, advance_month, genesis, release_escrow
from .policy import PolicyParams
from .weo_ingest import WeoVintage

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
        """Uniform integer in [lo, hi] (inclusive; lo <= hi); integer-only."""
        return lo + self.next_u64() % (hi - lo + 1)


# Anchor macro levels for synthetic trajectories, as decimal strings in
# ALL_BLOCS order: US, EA20, JP, UK, CA, AU, KR.
_BASE_DEBT = ("120", "90", "250", "100", "105", "45", "55")
_BASE_GDP = ("27000", "15000", "4200", "3300", "2100", "1700", "1800")
_BASIS_POINT = fp.from_str("0.0001")
_LEVEL_FLOOR = fp.from_str("1")
_OUTLIER_SKEW = fp.from_str("1.1")
# the names a governance script may change, and `replace` takes
_PARAM_NAMES = frozenset(f.name for f in fields(PolicyParams))


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
        for op in self.operators:
            if op not in oracle.ORACLE_OPERATORS:
                raise ScenarioInvalid(f"operator {op} is not on the oracle roster")
        for op, tag in self.oracle_behaviors.items():
            if op not in self.operators:
                raise ScenarioInvalid(f"behavior for unknown operator {op}")
            if tag not in ("honest", "outlier", "missing"):
                raise ScenarioInvalid(f"unknown behavior {tag!r}")
        for name in ("debt_drift_bp", "gdp_drift_bp", "fee_range_kld"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ScenarioInvalid(f"{name}: lo > hi")
        if self.fee_range_kld[0] < 0:
            raise ScenarioInvalid("fee_range_kld: a negative fee")
        if min(self.debt_drift_bp[0], self.gdp_drift_bp[0]) < -10_000:
            raise ScenarioInvalid("a drift below -10000 bp")  # below -100 %
        if any(y < 1 or y > self.years for y in self.dispute_years):
            raise ScenarioInvalid("dispute year outside horizon")
        for event in self.governance_script:
            if not 1 <= event["year"] <= self.years:
                raise ScenarioInvalid("governance year outside horizon")
            unknown = event["changes"].keys() - _PARAM_NAMES
            if unknown:
                raise ScenarioInvalid(f"not a policy parameter: {sorted(unknown)}")


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


def _drifted(rng: SplitMix64, level: int, drift_bp: tuple[int, int]) -> int:
    """`level` moved by a drawn number of basis points, floored at 1."""
    return max(fp.scale_amount_down(
        level, fp.ONE + _BASIS_POINT * rng.randint(*drift_bp)), _LEVEL_FLOOR)


def _drift(
    rng: SplitMix64,
    debt_ratios: tuple[int, ...],
    nominal_gdps: tuple[int, ...],
    scenario: Scenario,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A year's debt ratios and GDPs from the last, in ALL_BLOCS order; each
    bloc draws its debt move, then its GDP move."""
    levels = [(_drifted(rng, debt, scenario.debt_drift_bp),
               _drifted(rng, gdp, scenario.gdp_drift_bp))
              for debt, gdp in zip(debt_ratios, nominal_gdps)]
    return tuple(zip(*levels))


def run(scenario: Scenario) -> Trace:
    scenario.validate()
    rng = SplitMix64(scenario.seed)
    clock = VirtualClock(datetime(2026, 1, 1, tzinfo=timezone.utc))

    genesis_raw = b"synthetic-genesis-" + str(scenario.seed).encode()
    genesis_vintage = WeoVintage(
        "2025-October", date(2025, 10, 15), sha256_hex(genesis_raw)
    )
    debt_ratios = tuple(map(fp.from_str, _BASE_DEBT))
    nominal_gdps = tuple(map(fp.from_str, _BASE_GDP))
    baseline = BaselineRef(bdi_ref=weighted_bdi(debt_ratios, nominal_gdps)[1],
                           genesis_vintage=genesis_vintage, lam=fp.ONE)

    state = genesis()
    params = scenario.params or PolicyParams()
    executor = oracle.EXECUTOR_POLICY
    approvals = executor.signer_set[:executor.threshold]
    escrow_approvals = ESCROW_POLICY.signer_set[:ESCROW_POLICY.threshold]

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
        debt_ratios, nominal_gdps = _drift(rng, debt_ratios, nominal_gdps, scenario)

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
                debt = debt_ratios
                if behavior == "outlier":
                    # internally consistent but skewed inputs; the median absorbs it
                    debt = tuple(fp.scale_amount_down(d, _OUTLIER_SKEW)
                                 for d in debt_ratios)
                payload = payloads[behavior] = oracle.build_payload(
                    debt, nominal_gdps, baseline, vintage)
            submissions.append(oracle.OracleSubmission.sign(op, payload, clock.now()))

        flags = ()
        if year in scenario.dispute_years and len(submissions) >= 2:
            first, second = (s.operator_id for s in submissions[:2])
            flags = (oracle.Flag(first, "data-mismatch", "values off vs source"),
                     oracle.Flag(second, "data-mismatch", "confirmed mismatch"))
        record, state = oracle.settle_cycle(
            year, submissions, state, params, baseline, clock, approvals, flags,
        )

        for event in gov_by_year.get(year, []):
            governance_log.append(
                {"year": year, "changes": dict(event["changes"]), "status": "scripted"}
            )
            params = replace(
                params, **{k: fp.from_str(v) for k, v in event["changes"].items()})

        g_str = fp.to_str(state.annual_factors.g_used)  # the g in force
        for month in range(12):
            fees = rng.randint(*scenario.fee_range_kld) * 10 ** 6
            try:
                state, released = release_escrow(
                    state, state.annual_factors.escrow_cap, escrow_approvals)
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
        report = reporting.build_report(record, state.journal, state.n_events,
                                        governance_log, baseline)
        problems = [code for code, failed in (
            ("RecomputeMismatch", not reporting.recomputes(report, baseline)),
            ("CycleMismatch", report["g"] != g_str)) if failed]
        if problems:
            raise AssertionError(f"cycle {year} report failed verification: {problems}")
        commitment = reporting.commit(reporting.serialize(report), state.n_events)
        trace.report_commitments.append(commitment.content_hash)

    return trace
