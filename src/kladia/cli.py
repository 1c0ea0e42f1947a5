"""Operator command surface.

One verb per lifecycle stage: index, cycle, simulate, verify, govern,
state. Exit codes: 0 success, 1 verification/policy failure, 2 input
error, a usage error included. `main` parses the command line, runs the
verb and exits once with the code the verb returns. It is every verb's
one error boundary: it prints one `error: <Type>: <message>` line and
picks the exit code from the error's class alone. The state directory is
taken from --state-dir or the KLADIA_STATE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date, datetime, timezone
from pathlib import Path
from typing import NoReturn

from . import fixedpoint as fp
from . import governance as gov
from . import ledger as ledger_mod
from . import oracle_protocol as oracle
from . import reporting
from . import simulator as sim
from .canonical import canonical_bytes
from .clock import VirtualClock
from .debt_index import BaselineRef, index_kernel
from .errors import InputError, KladiaError, MalformedFile, NoPriorValue
from .policy import PolicyParams
from .weo_ingest import (
    ALL_BLOCS,
    Bloc,
    WeoVintage,
    apply_missing_data_rule,
    check_ranges,
    parse_weo_snapshot,
)

EXIT_OK = 0
EXIT_POLICY = 1
EXIT_INPUT = 2

# what exits 2; any other KladiaError exits 1, and anything else is a bug
_INPUT_ERRORS = (InputError, ValueError, LookupError, TypeError, OSError)


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedFile(f"{where}: not a JSON object")
    return value


def _read_object(path: Path) -> dict:
    return _as_object(json.loads(path.read_text()), path.name)


def _iso_date(text: str) -> date:
    """`YYYY-MM-DD` alone, on every Python (from 3.11, `date.fromisoformat`
    also reads `20261014` and `2026-W42-3`); a non-string is a TypeError."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def _load_baseline(path: Path) -> BaselineRef:
    data = _read_object(path)
    return BaselineRef(
        bdi_ref=fp.from_str(data["bdi_ref"]),
        genesis_vintage=WeoVintage(
            data["vintage_id"],
            _iso_date(data["publication_date"]),
            data["dataset_hash"],
        ),
        lam=fp.from_str(data["lambda"]),
    )


def _existing(value: str) -> Path:
    """A path argument that must exist: a missing one is a usage error,
    met before the verb has any side effect."""
    path = Path(value)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"{value!r} does not exist")
    return path


def _state_dir(option: Path | None) -> Path:
    """--state-dir, else KLADIA_STATE_DIR, read on each call."""
    value = option or os.environ.get("KLADIA_STATE_DIR")
    if not value:
        raise InputError("no state directory: give --state-dir or set "
                         "KLADIA_STATE_DIR")
    return Path(value)


def cmd_index(snapshot_file, baseline_file, vintage, publication_date,
              last_confirmed, fmt):
    """Compute weights, BDI, X and g from a snapshot file."""
    raw = snapshot_file.read_bytes()
    parsed = parse_weo_snapshot(raw, vintage, _iso_date(publication_date))
    prior = {}
    if last_confirmed is not None:
        prior_data = {code: _as_object(v, f"{last_confirmed.name}: {code}")
                      for code, v in _read_object(last_confirmed).items()}
        # every entry is checked, whether or not a missing bloc uses it
        for code, v in prior_data.items():
            bloc = Bloc(code)
            levels = fp.from_str(v["debt_ratio"]), fp.from_str(v["nominal_gdp"])
            check_ranges(bloc, *levels)
            prior[bloc] = levels
    elif parsed.missing():
        raise NoPriorValue(
            f"missing blocs {[b.value for b in parsed.missing()]} "
            "and no --last-confirmed file"
        )
    debt_ratios, nominal_gdps = apply_missing_data_rule(parsed, prior)
    baseline = _load_baseline(baseline_file)
    weights, bdi, x_norm, x_excess, g = index_kernel(
        debt_ratios, nominal_gdps, baseline)

    payload = {
        "dataset_hash": parsed.vintage.dataset_hash,
        "weights": {b.value: fp.to_str(w) for b, w in zip(ALL_BLOCS, weights)},
        "bdi": fp.to_str(bdi),
        "bdi_ref": fp.to_str(baseline.bdi_ref),
        "x_norm": fp.to_str(x_norm),
        "x_excess": fp.to_str(x_excess),
        "g": fp.to_str(g),
    }
    if fmt == "canonical":
        print(canonical_bytes(payload).decode())
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2}\t{v2}")
            else:
                print(f"{key}\t{value}")
    return EXIT_OK


def cmd_cycle(state_dir, submissions_dir, baseline_file, year, approvals):
    """Run one annual cycle: intake -> median -> window -> execute."""
    state_dir = _state_dir(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    lock = state_dir / ".lock"
    try:
        # O_EXCL: checking and creating the lock is one atomic step
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except FileExistsError:
        raise KladiaError(f"state dir is locked: {lock}") from None
    try:
        with os.fdopen(fd, "w") as held:
            held.write(str(os.getpid()))
        _run_cycle(state_dir, submissions_dir, baseline_file, year, approvals)
    finally:
        lock.unlink()
    return EXIT_OK


def _run_cycle(state_dir: Path, submissions_dir: Path, baseline_file: Path,
               year: int, approvals: str) -> None:
    baseline = _load_baseline(baseline_file)
    clock = VirtualClock(datetime(2026, 1, 1, tzinfo=timezone.utc))

    ledger_file = state_dir / "ledger.json"
    if ledger_file.exists():
        state = ledger_mod.from_json_dict(json.loads(ledger_file.read_text()))
    else:
        state = ledger_mod.genesis()

    submissions = []
    for sub_file in sorted(submissions_dir.glob("*.json")):
        data, where = _read_object(sub_file), sub_file.name
        if not isinstance(data["operator_id"], str):
            raise MalformedFile(f"{where}: operator_id: not a string")
        submissions.append(oracle.OracleSubmission.sign(
            data["operator_id"], oracle.read_payload(data, where), clock.now()))

    approval_list = (
        tuple(a.strip() for a in approvals.split(",") if a.strip())
        or oracle.EXECUTOR_POLICY.signer_set[:oracle.EXECUTOR_POLICY.threshold]
    )
    # the parameters in force: the last begin_cycle's, or the defaults
    last = ledger_mod.last_cycle(state.journal, state.n_events, ("begin_cycle",))
    params = (PolicyParams() if last is None
              else PolicyParams(*state.journal[last]["inputs"]["coefficients"]))
    record, state = oracle.settle_cycle(
        year, submissions, [s.operator_id for s in submissions], state,
        params, baseline, clock, approval_list,
    )

    report = reporting.build_report(record, state.journal, state.n_events, [],
                                    baseline)
    report_bytes = reporting.serialize(report)
    commitment = reporting.commit(report_bytes, ledger_anchor=state.n_events)

    # ledger.json, whose journal alone records a settled year, goes last
    (state_dir / f"report-{year}.kldr").write_bytes(report_bytes)
    (state_dir / f"report-{year}.commit").write_text(json.dumps(vars(commitment)))
    ledger_file.write_text(json.dumps(ledger_mod.to_json_dict(state)))
    print(f"cycle {year}: {record.window.status.value}, "
          f"g={fp.to_str(record.confirmed_g)}, "
          f"state_hash={state.state_hash()}")


def cmd_simulate(seed, years, dispute_years, out):
    """Run a deterministic scenario and print/emit the trace."""
    scenario = sim.Scenario(seed=seed, years=years,
                            dispute_years=tuple(dispute_years))
    trace = sim.run(scenario)
    table = trace.to_table()
    if out:
        out.write_text(table)
        print(f"trace written to {out} ({len(trace.rows)} rows, "
              f"hash {trace.trace_hash()})")
    else:
        print(table, end="")
    return EXIT_OK


def cmd_verify(report_file, commit_file, event_log, baseline_file):
    """Verify a report against its commitment (exit 0 iff clean).

    The recomputation uses the baseline's lambda.
    """
    commit_data = _read_object(commit_file)
    try:
        # exactly the three fields the writer writes; a missing or unknown
        # one is a TypeError, a bad value a MalformedFile naming its field
        commitment = reporting.ReportCommitment(**commit_data)
    except (TypeError, MalformedFile) as exc:
        raise MalformedFile(f"{commit_file.name}: {exc}") from None
    baseline = _load_baseline(baseline_file)
    data = _read_object(event_log)
    if list(data) != ["event_log"] or not isinstance(data["event_log"], list):
        raise MalformedFile(f'{event_log.name}: not {{"event_log": [...]}}')

    ok, problems = reporting.verify(
        report_file.read_bytes(), commitment, baseline, data["event_log"])
    if ok:
        print("verified: clean")
        return EXIT_OK
    print(f"verification failed: {', '.join(problems)}")
    return EXIT_POLICY


def cmd_govern(changes):
    """Check a parameter-change set against immutables and bounds."""
    change_map = {
        k: fp.from_str(v)
        for k, v in _as_object(json.loads(changes), "--changes").items()
    }
    try:
        gov.check_changes(change_map)
    except KladiaError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}")
        return EXIT_POLICY
    print("acceptable: would enter voting")
    return EXIT_OK


def cmd_state(state_dir):
    """Print the current ledger snapshot and its commitment hash."""
    ledger_file = _state_dir(state_dir) / "ledger.json"
    state = ledger_mod.from_json_dict(json.loads(ledger_file.read_text()))
    print(json.dumps(state.snapshot(), sort_keys=True, indent=2))
    print(f"state_hash\t{state.state_hash()}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kld", description="KLD debt-indexed policy engine.",
        allow_abbrev=False)
    verbs = parser.add_subparsers(metavar="verb", required=True)

    def verb(name, fn):
        sub = verbs.add_parser(name, help=fn.__doc__.splitlines()[0],
                               description=fn.__doc__, allow_abbrev=False)
        sub.set_defaults(fn=fn)
        return sub

    index = verb("index", cmd_index)
    index.add_argument("snapshot_file", type=_existing)
    index.add_argument("--baseline-file", type=_existing, required=True)
    index.add_argument("--vintage", required=True, help="e.g. 2026-October")
    index.add_argument("--publication-date", required=True, help="YYYY-MM-DD")
    index.add_argument("--last-confirmed", type=_existing,
                       help="JSON of last confirmed bloc values for carry-forward")
    index.add_argument("--fmt", "--format", dest="fmt", default="table",
                       choices=("table", "canonical"))

    cycle = verb("cycle", cmd_cycle)
    cycle.add_argument("--state-dir", type=Path,
                       help="default: the KLADIA_STATE_DIR environment variable")
    cycle.add_argument("--submissions-dir", type=_existing, required=True)
    cycle.add_argument("--baseline-file", type=_existing, required=True)
    cycle.add_argument("--year", type=int, required=True)
    cycle.add_argument("--approvals", default="",
                       help="comma-separated executor signers")

    simulate = verb("simulate", cmd_simulate)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--years", type=int, default=5)
    simulate.add_argument("--dispute-year", dest="dispute_years", type=int,
                          action="append", default=[])
    simulate.add_argument("--out", type=Path)

    verify = verb("verify", cmd_verify)
    verify.add_argument("report_file", type=_existing)
    verify.add_argument("commit_file", type=_existing)
    verify.add_argument("--event-log", type=Path, required=True,
                        help="ledger.json; the report is checked against its "
                        "slice of the event log")
    verify.add_argument("--baseline-file", type=_existing, required=True)

    govern = verb("govern", cmd_govern)
    govern.add_argument("--changes", required=True,
                        help="JSON object of parameter -> decimal string")

    state = verb("state", cmd_state)
    state.add_argument("--state-dir", type=_existing,
                       help="default: the KLADIA_STATE_DIR environment variable")
    return parser


_PARSER = _parser()


def main(argv: list[str] | None = None) -> NoReturn:
    """Run one `kld` command line (sys.argv by default) and exit with its
    code: the verb's, or the one the class of the error it raised picks."""
    args = vars(_PARSER.parse_args(argv))
    verb = args.pop("fn")
    try:
        code = verb(**args)
    except (KladiaError, *_INPUT_ERRORS) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INPUT if isinstance(exc, _INPUT_ERRORS) else EXIT_POLICY
    sys.exit(code)


# bench/harness.py calls `cli.main.main(args=...)`; ROADMAP item 6 deletes this
main.main = lambda args, prog_name, standalone_mode: main(args)


if __name__ == "__main__":
    main()
