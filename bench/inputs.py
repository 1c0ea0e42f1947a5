"""Seeded input generation for the three workloads.

Everything here depends only on the seed passed in; the program under test
sees only the files and scenario values produced. random.Random seeded with
a string is deterministic across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

# --- simulate ---------------------------------------------------------------

SIM_SCENARIOS = 4          # scenarios per round
SIM_YEARS = 50             # 600 months, the horizon of acceptance criterion 05
SIM_DISPUTES = 3           # lapsed years per scenario
SIM_OPERATORS = ("op-1", "op-2", "op-3", "op-4", "op-5")
# governable coefficients a scripted proposal may move, each within bounds
SIM_GOVERNANCE = (
    {"beta_b": "0.6"}, {"alpha_i": "0.4"}, {"gamma": "0.7"},
    {"b_base": "0.3"}, {"alpha_e": "0.6"},
)

# Genesis anchors of kladia's synthetic scenarios (simulator.Scenario draws
# its yearly macro paths from these levels and freezes BDI_ref on them).
SIM_ANCHOR_DEBT = {"US": "120", "EA20": "90", "JP": "250", "UK": "100",
                   "CA": "105", "AU": "45", "KR": "55"}
SIM_ANCHOR_GDP = {"US": "27000", "EA20": "15000", "JP": "4200", "UK": "3300",
                  "CA": "2100", "AU": "1700", "KR": "1800"}


def simulate_specs(seed: int) -> list[dict]:
    """Scenario parameters: one outlier, one missing operator, disputes that
    lapse and one scripted governance change per scenario."""
    rng = random.Random(f"simulate:{seed}")
    specs = []
    for _ in range(SIM_SCENARIOS):
        outlier, missing = rng.sample(SIM_OPERATORS, 2)
        specs.append({
            "seed": rng.getrandbits(48),
            "years": SIM_YEARS,
            "oracle_behaviors": {outlier: "outlier", missing: "missing"},
            "dispute_years": tuple(sorted(rng.sample(range(1, SIM_YEARS + 1),
                                                     SIM_DISPUTES))),
            "governance_script": ({"year": rng.randint(2, SIM_YEARS),
                                   "changes": dict(rng.choice(SIM_GOVERNANCE))},),
        })
    return specs


def simulate_bdi_ref() -> Fraction:
    debt = {b: ref.dec(v) for b, v in SIM_ANCHOR_DEBT.items()}
    gdp = {b: ref.dec(v) for b, v in SIM_ANCHOR_GDP.items()}
    return ref.bdi(debt, gdp)


# --- operator cycles --------------------------------------------------------

CYCLE_YEARS = 40            # successive years per state directory
CYCLE_OPERATORS = tuple(f"op-{i}" for i in range(1, 9))
ABSENT_OPERATOR = "op-8"    # registered, never submits
LAMBDA = Fraction(1)        # the paper's lambda; carried in the baseline file
OUTLIER_SKEW = Fraction(11, 10)
DEBT_SERIES = "GGXWDG_NGDP"
GDP_SERIES = "NGDPD"
# non-canonical series a real extract also carries; the parser must skip them
EXTRA_SERIES = ("LUR", "PCPIPCH", "GGXCNL_NGDP", "BCA_NGDPD", "NGDP_RPCH")

ANCHOR_DEBT = {"US": "121.3", "EA20": "88.6", "JP": "252.4", "UK": "101.1",
               "CA": "106.2", "AU": "49.8", "KR": "54.3"}
ANCHOR_GDP = {"US": "28781.1", "EA20": "16011.9", "JP": "4110.5",
              "UK": "3495.3", "CA": "2242.2", "AU": "1802.0", "KR": "1760.9"}
FIRST_YEAR = 2026


def _walk(rng: random.Random, level: Fraction, lo_bp: int, hi_bp: int) -> Fraction:
    """One year of drift, kept to 3 decimals like published extracts."""
    moved = level * (1 + Fraction(rng.randint(lo_bp, hi_bp), 10_000))
    return max(Fraction(1), Fraction(round(moved * 1000), 1000))


def _snapshot_csv(rng: random.Random, debt: dict, gdp: dict, vintage: str) -> bytes:
    rows = []
    for b in ref.BLOCS:
        rows.append(f"{b},{DEBT_SERIES},{ref.fmt(debt[b])},{vintage}")
        rows.append(f"{b},{GDP_SERIES},{ref.fmt(gdp[b])},{vintage}")
        for series in EXTRA_SERIES:
            rows.append(f"{b},{series},{rng.randint(-5000, 15000) / 1000},{vintage}")
    rng.shuffle(rows)
    return ("bloc,series,value,vintage\n" + "\n".join(rows) + "\n").encode()


def _payload(debt: dict, gdp: dict, bdi_ref: Fraction) -> tuple[dict, Fraction]:
    out = ref.index(debt, gdp, bdi_ref, LAMBDA)
    return {
        "debt_ratios": {b: ref.fmt(debt[b]) for b in ref.BLOCS},
        "nominal_gdps": {b: ref.fmt(gdp[b]) for b in ref.BLOCS},
        "bdi": ref.fmt(out["bdi"]),
        "x_norm": ref.fmt(out["x_norm"]),
        "g": ref.fmt(out["g"]),
    }, out["bdi"]


def write_cycle_inputs(seed: str, root: Path, years: int = CYCLE_YEARS) -> dict:
    """Write a baseline, and per year a snapshot CSV and the submission files
    of seven operators (one skewed outlier; op-8 absent).

    Submission payloads (bdi, x_norm, g) come from the reference, so the
    program's intake re-check doubles as a cross-check. Returns the expected
    values for every year.
    """
    rng = random.Random(f"cycle:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    debt = {b: ref.dec(v) for b, v in ANCHOR_DEBT.items()}
    gdp = {b: ref.dec(v) for b, v in ANCHOR_GDP.items()}
    genesis_csv = _snapshot_csv(rng, debt, gdp, f"{FIRST_YEAR - 1}-October")
    bdi_ref = ref.bdi(debt, gdp)
    baseline = {
        "bdi_ref": ref.fmt(bdi_ref),
        "vintage_id": f"{FIRST_YEAR - 1}-October",
        "publication_date": f"{FIRST_YEAR - 1}-10-15",
        "dataset_hash": hashlib.sha256(genesis_csv).hexdigest(),
        "lambda": ref.fmt(LAMBDA),
    }
    baseline_file = root / "baseline.json"
    baseline_file.write_text(json.dumps(baseline, sort_keys=True))

    outlier = rng.choice(CYCLE_OPERATORS[:-1])
    expected = []
    for i in range(years):
        year = FIRST_YEAR + i
        vintage = f"{year}-October"
        debt = {b: _walk(rng, debt[b], -200, 600) for b in ref.BLOCS}
        gdp = {b: _walk(rng, gdp[b], 100, 500) for b in ref.BLOCS}
        csv_bytes = _snapshot_csv(rng, debt, gdp, vintage)
        dataset_hash = hashlib.sha256(csv_bytes).hexdigest()
        snap = root / f"snapshot-{year}.csv"
        snap.write_bytes(csv_bytes)

        subs = root / f"subs-{year}"
        subs.mkdir(exist_ok=True)
        submitted = []
        for op in CYCLE_OPERATORS:
            if op == ABSENT_OPERATOR:
                continue
            op_debt = debt
            if op == outlier:
                op_debt = {b: ref.q9(v * OUTLIER_SKEW) for b, v in debt.items()}
            body, op_bdi = _payload(op_debt, gdp, bdi_ref)
            submitted.append(op_bdi)
            body.update(operator_id=op, vintage_id=vintage,
                        dataset_hash=dataset_hash)
            (subs / f"{op}.json").write_text(json.dumps(body, sort_keys=True))

        index = ref.index(debt, gdp, bdi_ref, LAMBDA)
        median_bdi = ref.lower_median(submitted)
        x_norm, _, g = ref.policy_factor(median_bdi, bdi_ref, LAMBDA)
        expected.append({
            "year": year,
            "vintage": vintage,
            "publication_date": f"{year}-10-15",
            "snapshot": snap,
            "subs": subs,
            "index": {
                "dataset_hash": dataset_hash,
                "weights": {b: ref.fmt(w) for b, w in index["weights"].items()},
                "bdi": ref.fmt(index["bdi"]),
                "bdi_ref": ref.fmt(bdi_ref),
                "x_norm": ref.fmt(index["x_norm"]),
                "x_excess": ref.fmt(index["x_excess"]),
                "g": ref.fmt(index["g"]),
            },
            "median": {"bdi": ref.fmt(median_bdi), "x_norm": ref.fmt(x_norm),
                       "g": ref.fmt(g)},
        })
    return {"baseline": baseline_file, "years": expected}
