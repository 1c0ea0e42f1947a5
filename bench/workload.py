"""One workload in one process: set up, then run whole rounds until the
run's time is up, and write the result as JSON.

run.py starts this file; it is not meant to be run by hand. It imports
kladia from src/ under the current directory (the checkout's root) and
nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import workloads
from harness import CheckFailed, Meter
from tracer import Aggregate, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent


def import_kladia(root: Path):
    src = (root / "src").resolve()
    if not (src / "kladia" / "__init__.py").is_file():
        sys.exit(f"error: no kladia sources under {src}")
    sys.path.insert(0, str(src))
    import kladia
    import kladia.cli
    import kladia.simulator
    if Path(kladia.__file__).resolve().parent != src / "kladia":
        sys.exit(f"error: imported kladia from {kladia.__file__}, not {src}")
    return kladia


def run_rounds(wl, seconds: float, trace: bool, spans_path: Path) -> dict:
    """Whole rounds until `seconds` have passed. With trace, untraced and
    traced rounds alternate and the traced ones feed the per-layer metrics."""
    plain = wl.meter
    traced = Meter()
    tracer = agg = None
    if trace:
        tracer, agg = Tracer(), Aggregate()
        tracer.prepare()
    round_seconds: dict[bool, list[float]] = {False: [], True: []}
    first = None
    error = None
    start = perf_counter()
    try:
        while True:
            for tracing in ((False, True) if trace else (False,)):
                wl.meter = traced if tracing else plain
                before = wl.meter.timed_seconds
                if tracing:
                    wl.tracer = tracer
                    tracer.install()
                try:
                    wl.round(checked=first is None)
                finally:
                    if tracing:
                        tracer.uninstall()
                        wl.tracer = None
                round_seconds[tracing].append(wl.meter.timed_seconds - before)
                if tracing:
                    if agg.rounds == 0:
                        tracer.write(spans_path)
                    tracer.fold(agg)
                outputs = wl.outputs()
                if first is None:
                    first = outputs
                elif outputs != first:
                    raise CheckFailed(f"round outputs {outputs} differ from "
                                      f"the first round's {first}")
            if perf_counter() - start >= seconds:
                break
    except CheckFailed as exc:
        error = str(exc)

    op = plain.kind(wl.op_kind)
    result = {
        "correct": error is None,
        "error": error,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "rounds": len(round_seconds[False]),
        "op_samples": len(op.values),
        "outputs": first,
        "metrics": {
            "op_ms.p75": op.quantile_ms(75),
            "op_ms.p90": op.quantile_ms(90),
        },
    }
    if trace:
        layers, absent = layer_metrics(agg, tracer, wl.files())
        plain_med = sorted(round_seconds[False])[len(round_seconds[False]) // 2]
        traced_med = sorted(round_seconds[True])[len(round_seconds[True]) // 2]
        layers["trace.overhead_pct"] = (
            100.0 * (traced_med - plain_med) / plain_med if plain_med else 0.0)
        for verb in ("index", "cycle", "verify"):
            layers[f"cli.{verb}_ms.p50"] = plain.kind(verb).quantile_ms(50)
        result["layers"] = layers
        result["absent"] = sorted(set(absent) | set(tracer.absent))
        result["traced_rounds"] = agg.rounds
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    kladia = import_kladia(Path.cwd())

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](kladia, args.seed, work)
        result = {"setup_end": perf_counter()}
        if not args.setup_only:
            result.update(run_rounds(wl, args.seconds, bool(args.trace), args.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
