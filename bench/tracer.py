"""Span tracing of kladia's layers, installed from outside the program.

Each layer is a module under src/kladia/. Tracing replaces every public
function of a layer (plus the named methods and helpers below) with a
wrapper that records a span: name, start, end and parent. The wrapper is
rebound wherever a kladia module imported the function by name, e.g.
compute_bdi inside oracle_protocol. Spans are kept in flat arrays in
memory and folded into per-layer totals after each traced round; the
first traced round's spans are also written out.

A name listed here that the program no longer has is skipped and reported
as absent, so removing or renaming a function never breaks the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from array import array
from time import perf_counter_ns

# Layers that get metrics. policy, clock and governance get none: policy
# runs once a year, clock does trivial work, and no workload drives the
# governance lifecycle; their time lands in the calling layer's self time.
LAYERS = ("fixedpoint", "canonical", "weo_ingest", "debt_index", "ledger",
          "oracle_protocol", "reporting", "simulator", "cli")

# Spanned besides each layer's public module-level functions.
EXTRA = {
    "ledger": ("LedgerState.clone", "LedgerState.state_hash",
               "LedgerState.snapshot", "LedgerState.check_conservation",
               "LedgerState._log"),
    "oracle_protocol": ("OracleSubmission.sign", "SubmissionPayload.canonical",
                        "CycleRecord.canonical", "_recompute_check"),
    "simulator": ("Trace.trace_hash",),
    "cli": ("_run_cycle", "_load_baseline"),
}

LEDGER_TRANSITIONS = ("begin_cycle", "vest_month", "release_escrow", "burn",
                      "emit_staking", "spend_reserve", "mark_distributed",
                      "relock", "advance_month")

# Durations kept per call, for percentiles.
TIMED = ("ledger.advance_month", "oracle_protocol.submit",
         "oracle_protocol.aggregate_median", "weo_ingest.parse_weo_snapshot")


def _targets(layer: str, module) -> tuple[list[tuple[str, object, str]], list[str]]:
    """(qualified name, owner, attribute) of everything to span, and the
    EXTRA names the module does not have."""
    found, absent = [], []
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            found.append((f"{layer}.{attr}", module, attr))
    for dotted in EXTRA.get(layer, ()):
        owner, _, attr = dotted.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        if holder is None or not hasattr(holder, attr):
            absent.append(f"{layer}.{dotted}")
            continue
        found.append((f"{layer}.{dotted}", holder, attr))
    return found, absent


class Tracer:
    """Records spans while installed; folds them into an Aggregate."""

    def __init__(self):
        self.names: list[str] = []          # span name id -> "layer.func"
        self._ids: dict[str, int] = {}
        self.layer_of: list[int] = []       # span name id -> index in LAYERS
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.current = -1
        self.bytes_hashed = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan: list[tuple[str, object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(name.split(".", 1)[0]))
        return self._ids[name]

    def prepare(self) -> None:
        """Resolve what to wrap, once; kladia must already be imported."""
        for layer in LAYERS:
            module = sys.modules.get(f"kladia.{layer}")
            if module is None:
                self.absent.append(f"kladia.{layer}")
                continue
            found, absent = _targets(layer, module)
            self.absent.extend(absent)
            for name, owner, attr in found:
                raw = inspect.getattr_static(owner, attr)
                self._plan.append((name, owner, attr, raw))

    def _wrap(self, fn, nid: int, counts_bytes: bool):
        tracer = self
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(tracer.current)
            name_ids.append(nid)
            ends.append(0)
            tracer.current = idx
            if counts_bytes:
                tracer.bytes_hashed += len(args[0])
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                tracer.current = parents[idx]
        return wrapper

    def install(self) -> None:
        kladia_modules = [m for n, m in list(sys.modules.items())
                          if n == "kladia" or n.startswith("kladia.")]
        for name, owner, attr, raw in self._plan:
            nid = self.name_id(name)
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, nid, False))
                original = raw.__func__
            else:
                original = raw
                replacement = self._wrap(raw, nid, name == "canonical.sha256_hex")
            self._patches.append((owner, attr, raw, replacement))
            setattr(owner, attr, replacement)
            if inspect.isclass(owner):
                continue
            # rebind every `from .module import name` copy of the function
            for module in kladia_modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patches.append((module, key, value, replacement))
                        setattr(module, key, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span(self, name: str):
        """A span opened by the benchmark itself (one kld verb)."""
        return _Span(self, self.name_id(name))

    def clear(self) -> None:
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.current = -1
        self.bytes_hashed = 0

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,name,start_ns,end_ns\n")
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                out.write(f"{i},{parent},{self.names[nid]},{start},{end}\n")

    def fold(self, agg: "Aggregate") -> None:
        """Add the recorded spans to agg, then drop them."""
        n = len(self.starts)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        layer_of = self.layer_of
        name_ids = self.name_ids
        for i in range(n):
            nid = name_ids[i]
            layer = layer_of[nid]
            name = self.names[nid]
            agg.self_ns[layer] += durations[i] - child[i]
            agg.calls[name] = agg.calls.get(name, 0) + 1
            agg.total_ns[name] = agg.total_ns.get(name, 0) + durations[i]
            parent = self.parents[i]
            if parent < 0 or layer_of[name_ids[parent]] != layer:
                agg.entries[layer] += 1
                agg.entry_calls[name] = agg.entry_calls.get(name, 0) + 1
            if name in TIMED:
                agg.durations.setdefault(name, []).append(durations[i])
        agg.bytes_hashed += self.bytes_hashed
        agg.rounds += 1
        self.clear()


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.starts)
        t.parents.append(t.current)
        t.name_ids.append(self.nid)
        t.ends.append(0)
        t.current = self.idx
        t.starts.append(perf_counter_ns())

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.idx] = perf_counter_ns()
        t.current = t.parents[self.idx]


class Aggregate:
    """Per-layer totals over every traced round."""

    def __init__(self):
        self.self_ns = [0] * len(LAYERS)
        self.entries = [0] * len(LAYERS)
        self.calls: dict[str, int] = {}
        self.entry_calls: dict[str, int] = {}   # calls from another layer
        self.total_ns: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.bytes_hashed = 0
        self.rounds = 0

    def per_round(self, value: float) -> float:
        return value / self.rounds if self.rounds else 0.0

    def layer_self_ms(self, layer: str) -> float:
        return self.per_round(self.self_ns[LAYERS.index(layer)]) / 1e6

    def layer_entries(self, layer: str) -> float:
        return self.per_round(self.entries[LAYERS.index(layer)])

    def count(self, name: str) -> float:
        return self.per_round(self.calls.get(name, 0))

    def total_ms(self, *names: str) -> float:
        return self.per_round(sum(self.total_ns.get(n, 0) for n in names)) / 1e6

    def p50_us(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) / 1e3 if values else 0.0


def layer_metrics(agg: Aggregate, tracer: Tracer, files: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (counts and times per round) and the names that are
    absent because a function they read is gone from the program."""
    have = {name for name, *_ in tracer._plan} | set(tracer.names)
    absent: list[str] = []

    def needs(metric: str, *names: str) -> bool:
        if all(n in have for n in names):
            return True
        absent.append(metric)
        return False

    months = agg.count("ledger.advance_month")
    submits = agg.count("oracle_protocol.submit")
    transitions = [f"ledger.{t}" for t in LEDGER_TRANSITIONS
                   if f"ledger.{t}" in have]
    m: dict[str, float] = {}
    # a transition run by another ledger transition (advance_month runs
    # vest_month, emit_staking and burn) is part of that one
    if transitions:
        m["ledger.transitions"] = agg.per_round(
            sum(agg.entry_calls.get(n, 0) for n in transitions))
    else:
        absent.append("ledger.transitions")
    if needs("ledger.clones", "ledger.LedgerState.clone"):
        m["ledger.clones"] = agg.count("ledger.LedgerState.clone")
    if needs("ledger.state_hashes", "ledger.LedgerState.state_hash"):
        m["ledger.state_hashes"] = agg.count("ledger.LedgerState.state_hash")
    if needs("ledger.clones_per_month", "ledger.LedgerState.clone",
             "ledger.advance_month"):
        m["ledger.clones_per_month"] = (
            agg.count("ledger.LedgerState.clone") / months if months else 0.0)
    if needs("ledger.hashes_per_month", "ledger.LedgerState.state_hash",
             "ledger.advance_month"):
        m["ledger.hashes_per_month"] = (
            agg.count("ledger.LedgerState.state_hash") / months if months else 0.0)
    if needs("ledger.events", "ledger.LedgerState._log"):
        m["ledger.events"] = agg.count("ledger.LedgerState._log")
    if needs("ledger.advance_month_us.p50", "ledger.advance_month"):
        m["ledger.advance_month_us.p50"] = agg.p50_us("ledger.advance_month")
    m["ledger.self_ms"] = agg.layer_self_ms("ledger")
    if needs("ledger.persist_ms", "ledger.to_json_dict", "ledger.from_json_dict"):
        m["ledger.persist_ms"] = agg.total_ms("ledger.to_json_dict",
                                              "ledger.from_json_dict")
    m["ledger.state_bytes"] = files.get("ledger_bytes", 0)

    if needs("canonical.hash_calls", "canonical.sha256_hex"):
        m["canonical.hash_calls"] = agg.count("canonical.sha256_hex")
        m["canonical.bytes_hashed"] = agg.per_round(agg.bytes_hashed)
    else:
        absent.append("canonical.bytes_hashed")
    m["canonical.self_ms"] = agg.layer_self_ms("canonical")

    m["fixedpoint.calls"] = agg.layer_entries("fixedpoint")
    m["fixedpoint.self_ms"] = agg.layer_self_ms("fixedpoint")

    m["debt_index.kernel_calls"] = agg.layer_entries("debt_index")
    m["debt_index.kernel_calls_per_submit"] = (
        agg.layer_entries("debt_index") / submits if submits else 0.0)
    m["debt_index.self_ms"] = agg.layer_self_ms("debt_index")

    if needs("oracle_protocol.submits", "oracle_protocol.submit"):
        m["oracle_protocol.submits"] = submits
        m["oracle_protocol.submit_us.p50"] = agg.p50_us("oracle_protocol.submit")
    else:
        absent.append("oracle_protocol.submit_us.p50")
    if needs("oracle_protocol.median_us.p50", "oracle_protocol.aggregate_median"):
        m["oracle_protocol.median_us.p50"] = agg.p50_us(
            "oracle_protocol.aggregate_median")
    m["oracle_protocol.self_ms"] = agg.layer_self_ms("oracle_protocol")

    if needs("weo_ingest.parse_calls", "weo_ingest.parse_weo_snapshot"):
        m["weo_ingest.parse_calls"] = agg.count("weo_ingest.parse_weo_snapshot")
        m["weo_ingest.parse_us.p50"] = agg.p50_us("weo_ingest.parse_weo_snapshot")
    else:
        absent.append("weo_ingest.parse_us.p50")

    for metric, name in (("reporting.build_ms", "reporting.build_report"),
                         ("reporting.commit_ms", "reporting.commit"),
                         ("reporting.verify_ms", "reporting.verify")):
        if needs(metric, name):
            m[metric] = agg.total_ms(name)
    if needs("reporting.verify_calls", "reporting.verify"):
        m["reporting.verify_calls"] = agg.count("reporting.verify")

    m["simulator.self_ms"] = agg.layer_self_ms("simulator")
    m["cli.self_ms"] = agg.layer_self_ms("cli")
    m["cli.state_dir_bytes"] = files.get("state_dir_bytes", 0)
    return m, absent

