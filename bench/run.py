"""kladia benchmark: one command for every workload.

Run from the repository root:

    python3 bench/run.py --workload simulate --seed 1 --seconds 36 --trace 0

Workloads: simulate, operator-cycle, verifier-audit (see bench/README.md).
With --trace 0 the end-to-end metrics are measured; with --trace 1 a
traced run gives the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with correct, attempted,
failed and metrics; the full record, with the output hashes the run
produced, goes to bench/out/.

Each run starts separate processes one after another: a few that only set
up (their median, with the measuring process's own, is setup_s), then the
one that measures. None runs threads of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("simulate", "operator-cycle", "verifier-audit")
SETUP_PROBES = 4            # set-up-only processes before the measuring one
DEADLINE_S = 170            # a run must end well within 180 s

END_TO_END = {"setup_s": "s", "op_ms.p75": "ms", "op_ms.p90": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "ledger.transitions": "count", "ledger.clones": "count",
    "ledger.state_hashes": "count", "ledger.clones_per_month": "1/month",
    "ledger.hashes_per_month": "1/month", "ledger.events": "count",
    "ledger.advance_month_us.p50": "us", "ledger.self_ms": "ms",
    "ledger.persist_ms": "ms", "ledger.state_bytes": "bytes",
    "canonical.hash_calls": "count", "canonical.bytes_hashed": "bytes",
    "canonical.self_ms": "ms",
    "fixedpoint.calls": "count", "fixedpoint.self_ms": "ms",
    "debt_index.kernel_calls": "count",
    "debt_index.kernel_calls_per_submit": "1/submit",
    "debt_index.self_ms": "ms",
    "oracle_protocol.submits": "count", "oracle_protocol.submit_us.p50": "us",
    "oracle_protocol.median_us.p50": "us", "oracle_protocol.self_ms": "ms",
    "weo_ingest.parse_calls": "count", "weo_ingest.parse_us.p50": "us",
    "reporting.build_ms": "ms", "reporting.commit_ms": "ms",
    "reporting.verify_calls": "count", "reporting.verify_ms": "ms",
    "simulator.self_ms": "ms",
    "cli.self_ms": "ms", "cli.state_dir_bytes": "bytes",
    "cli.index_ms.p50": "ms", "cli.cycle_ms.p50": "ms", "cli.verify_ms.p50": "ms",
    "trace.overhead_pct": "%",
}


class RunFailed(Exception):
    pass


def spawn(args: argparse.Namespace, out: Path, tag: str, deadline: float,
          setup_only: bool) -> dict:
    """Run one workload process; returns its result with setup_s added."""
    result_file = out / f".result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(BENCH / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_file),
           "--spans", str(out / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    if setup_only:
        cmd.append("--setup-only")
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{tag} process did not finish in time") from exc
    if proc.returncode != 0 or not result_file.is_file():
        raise RunFailed(f"{tag} process exited {proc.returncode}")
    try:
        result = json.loads(result_file.read_text())
    finally:
        result_file.unlink()
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading and ours share an origin
    result["setup_s"] = result["setup_end"] - started
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = perf_counter() + DEADLINE_S
    if not (Path.cwd() / "src" / "kladia" / "__init__.py").is_file():
        print("error: run from the root of a kladia checkout (no src/kladia)",
              file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)

    try:
        setups = [spawn(args, out, f"setup{i}", deadline, True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        run = spawn(args, out, "run", deadline, False)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    if args.trace:
        names = PER_LAYER
        measured = run["layers"]
    else:
        names = END_TO_END
        measured = dict(run["metrics"], setup_s=statistics.median(setups),
                        peak_rss_mb=run["peak_rss_mb"])
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
               for name, unit in names.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "correct": run["correct"], "error": run["error"],
        "attempted": run["attempted"], "failed": run["failed"],
        "rounds": run["rounds"], "op_samples": run["op_samples"],
        "setup_samples_s": setups, "metrics": metrics,
        "absent": run.get("absent", []), "outputs": run["outputs"],
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))

    print(f"workload {args.workload}, seed {args.seed}: {run['rounds']} rounds, "
          f"attempted {run['attempted']}, failed {run['failed']}, "
          f"correct {str(run['correct']).lower()}")
    if run["error"]:
        print(f"check failed: {run['error']}")
    for name, m in metrics.items():
        mark = " (absent)" if name in record["absent"] else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{mark}")
    print(f"outputs {json.dumps(run['outputs'], sort_keys=True)}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
