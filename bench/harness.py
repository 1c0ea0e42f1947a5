"""In-process calls into kladia and the samples they produce."""

from __future__ import annotations

import contextlib
import io
import statistics
from array import array
from time import perf_counter


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Samples:
    """Durations of one kind of operation, in seconds."""

    def __init__(self):
        self.values = array("d")

    def add(self, seconds: float) -> None:
        self.values.append(seconds)

    def quantile_ms(self, q: int) -> float:
        """The q-th percentile in ms (q in 1..99); the median for q = 50."""
        if not self.values:
            return 0.0
        if q == 50 or len(self.values) < 2:
            return statistics.median(self.values) * 1e3
        return statistics.quantiles(self.values, n=100)[q - 1] * 1e3


class Meter:
    """What a workload did: operations attempted and failed, the time spent
    inside timed operations, and the duration of each by kind."""

    def __init__(self):
        self.samples: dict[str, Samples] = {}
        self.attempted = 0
        self.failed = 0
        self.timed_seconds = 0.0

    def kind(self, name: str) -> Samples:
        return self.samples.setdefault(name, Samples())


class Kld:
    """Runs `kld` verbs through the click entry point, in this process.

    Every call is timed into meter.kind(verb); with a tracer, every call is
    also a `cli.<verb>` span.
    """

    def __init__(self, cli_module, meter: Meter):
        self.main = cli_module.main
        self.meter = meter
        self.tracer = None
        # one buffer for the life of the runner: click caches a wrapper per
        # output stream in a weak-keyed map whose value keeps the stream
        # alive, so a fresh buffer per call would never be freed
        self._out = io.StringIO()

    def __call__(self, verb: str, *args: str) -> tuple[int, str]:
        out = self._out
        out.seek(0)
        out.truncate()
        span = (self.tracer.span(f"cli.{verb}") if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = perf_counter()
            with span:
                try:
                    self.main.main(args=[verb, *args], prog_name="kld",
                                   standalone_mode=True)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            elapsed = perf_counter() - start
        self.meter.kind(verb).add(elapsed)
        self.meter.attempted += 1
        self.last_seconds = elapsed
        return code, out.getvalue()
