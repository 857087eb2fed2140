"""Per-layer tracing for the benchmark's traced runs.

install() replaces public functions of fiberphoton's sim, correlate, fit, io
and cli modules with wrappers, in the module namespaces, so calls from one
module into another are caught too.  While `recording` is set, each call
leaves one span: its wall time, the time its traced children cover, its
input/output sizes and, for the calls in MEMORY_TRACED, its tracemalloc
peak.  Only run.py's traced mode imports this module.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from fiberphoton import cli, correlate, fit, io, sim


def _events(streams) -> int:
    return sum(s.times.size for s in streams)


def _file_bytes(a, r) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


# (module, function name, sizes(arguments by name, result) or None).  cli
# imports simulate_streams by name, so that binding is wrapped separately.
TARGETS = [
    (sim, "simulate_emission", lambda a, r: {"emissions": r.size}),
    (sim, "detect_hbt", lambda a, r: {"events": _events(r)}),
    (sim, "simulate_streams", lambda a, r: {"events": _events(r)}),
    (cli, "simulate_streams", lambda a, r: {"events": _events(r)}),
    (correlate, "cross_correlate",
     lambda a, r: {"pairs": r.total_pairs, "bins": r.counts.size}),
    (correlate, "normalize_cw", None),
    (correlate, "normalize_pulsed", None),
    (correlate, "integrate_peaks", None),
    (correlate, "background_coincidence_rate", None),
    (fit, "fit_g2_cw", lambda a, r: {"iterations": r.iterations}),
    (fit, "fit_g2_pulsed", lambda a, r: {"iterations": r.iterations}),
    (io, "write_stream_csv",
     lambda a, r: {"events": _events(a["streams"]), **_file_bytes(a, r)}),
    (io, "read_stream_csv",
     lambda a, r: {"events": _events(r), **_file_bytes(a, r)}),
    (io, "write_sim_sidecar", _file_bytes),
    (io, "write_histogram_csv", _file_bytes),
    (io, "read_histogram_csv", _file_bytes),
    (io, "write_fit_report", _file_bytes),
    (cli, "main", lambda a, r: {"command": a["argv"][0]}),
]


#: Calls whose tracemalloc peak is recorded.  tracemalloc traces every
#: Python object, so it stays off elsewhere: inside the per-row CSV loops and
#: the per-event pulsed sampler it made the calls about ten times slower.
MEMORY_TRACED = {"correlate.cross_correlate"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0
    sizes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Wraps the TARGETS while installed; records spans while `recording`."""

    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals = []

    def install(self):
        for module, name, sizes in TARGETS:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            label = module.__name__.rsplit(".", 1)[-1] + "." + name
            setattr(module, name, self._wrap(original, label, sizes))

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def round_metrics(self) -> dict:
        """layer_metrics() of the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return layer_metrics(spans)

    def _wrap(self, fn, label, sizes):
        memory = label in MEMORY_TRACED
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(label, 0.0)
            self._stack.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += span.duration
                self.spans.append(span)
            if sizes is not None:
                span.sizes = sizes(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _total(spans, *names) -> float:
    return sum(s.duration for s in spans if s.name in names)


def _size(spans, name, key) -> int:
    return sum(s.sizes.get(key, 0) for s in spans if s.name == name)


def _command_s(cli_spans, command) -> float:
    return sum(s.duration for s in cli_spans if s.sizes.get("command") == command)


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one round.  A layer the round never called reads 0."""
    emission_s = _total(spans, "sim.simulate_emission")
    cross_s = _total(spans, "correlate.cross_correlate")
    write_s = _total(spans, "io.write_stream_csv")
    read_s = _total(spans, "io.read_stream_csv")
    cli_spans = [s for s in spans if s.name == "cli.main"]
    cross_peaks = [s.peak_bytes for s in spans
                   if s.name == "correlate.cross_correlate"]
    return {
        "sim.emission_s": emission_s,
        "sim.emissions_per_s": _rate(
            _size(spans, "sim.simulate_emission", "emissions"), emission_s),
        "sim.detect_s": _total(spans, "sim.detect_hbt"),
        "correlate.cross_s": cross_s,
        "correlate.pairs_per_s": _rate(
            _size(spans, "correlate.cross_correlate", "pairs"), cross_s),
        "correlate.cross_peak_mb": max(cross_peaks, default=0) / 1e6,
        "correlate.post_s": _total(
            spans, "correlate.normalize_cw", "correlate.normalize_pulsed",
            "correlate.integrate_peaks", "correlate.background_coincidence_rate"),
        "fit.s": _total(spans, "fit.fit_g2_cw", "fit.fit_g2_pulsed"),
        "fit.iterations": _size(spans, "fit.fit_g2_cw", "iterations")
        + _size(spans, "fit.fit_g2_pulsed", "iterations"),
        "io.stream_write_s": write_s,
        "io.stream_write_events_per_s": _rate(
            _size(spans, "io.write_stream_csv", "events"), write_s),
        "io.stream_read_s": read_s,
        "io.stream_read_events_per_s": _rate(
            _size(spans, "io.read_stream_csv", "events"), read_s),
        "io.stream_bytes": _size(spans, "io.write_stream_csv", "bytes"),
        "io.other_s": _total(
            spans, "io.write_sim_sidecar", "io.write_histogram_csv",
            "io.read_histogram_csv", "io.write_fit_report"),
        "cli.pipeline_s": _command_s(cli_spans, "pipeline"),
        "cli.correlate_s": _command_s(cli_spans, "correlate"),
        "cli.fit_s": _command_s(cli_spans, "fit"),
        "cli.self_s": sum(s.self_s for s in cli_spans),
    }


UNITS = {
    "sim.emission_s": "s", "sim.emissions_per_s": "1/s", "sim.detect_s": "s",
    "correlate.cross_s": "s", "correlate.pairs_per_s": "1/s",
    "correlate.cross_peak_mb": "MB", "correlate.post_s": "s",
    "fit.s": "s", "fit.iterations": "count",
    "io.stream_write_s": "s", "io.stream_write_events_per_s": "1/s",
    "io.stream_read_s": "s", "io.stream_read_events_per_s": "1/s",
    "io.stream_bytes": "bytes", "io.other_s": "s",
    "cli.pipeline_s": "s", "cli.correlate_s": "s", "cli.fit_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
