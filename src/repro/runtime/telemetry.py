"""Run-scoped telemetry: a structured event log plus a metrics registry.

Every layer of the evaluation runtime that used to narrate itself with
ad-hoc ``print()`` lines now emits through one :class:`Telemetry` handle:

* **events** -- point events and spans appended as JSONL records (see
  :mod:`repro.runtime.trace_format` for the schema) to ``events.jsonl``
  under a trace directory, and fanned out to any attached *sinks* (the
  console reporter in :mod:`repro.runtime.console`);
* **metrics** -- counters, gauges and histograms in a
  :class:`MetricsRegistry`, snapshotted to ``metrics.json`` on close.

Design constraints (pinned by ``tests/runtime/test_telemetry.py``):

* **A disabled handle is a true no-op**: the guard is one attribute
  check (``self.enabled``), nothing allocates, no file is ever touched.
  The module-level :data:`NULL_TELEMETRY` is the default everywhere, so
  library callers that never ask for tracing pay one ``if`` per
  *batch/generation/leg* -- instrumentation sits at engine / search
  granularity, never inside the simulator's hot loops (the
  ``repro.gpu`` interpreter tiers do not import this module at all).
* **One process writes the trace**: the process that owns the run.
  Pool workers record nothing; each task hands its evaluation time back
  with its result, and the engine reports it as the ``busy`` field of
  its ``engine.batch`` span.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .cache import atomic_write_text
from .trace_format import (
    EVENTS_FILE,
    METRICS_FILE,
    TRACE_FORMAT_VERSION,
    TraceEvent,
    format_event_line,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "NULL_TELEMETRY",
    "new_run_id",
    "emit_module_hotspots",
]


def new_run_id() -> str:
    """A fresh, sortable, file-safe run identifier.

    Wall-clock prefix for humans (traces sort chronologically in a
    directory listing), random suffix for uniqueness across concurrent
    runs.  The same ids tag ``BENCH_simulator.json`` entries so bench
    trajectory points are joinable to the traces they came from.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


# -- metrics --------------------------------------------------------------------------

class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Streaming summary of an observed distribution (no samples kept)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min if self.min is not None else 0.0,
                "max": self.max if self.max is not None else 0.0}


class _NullMetric:
    """Accepts every update and records nothing (the disabled tier)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self):
        return 0


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named counters / gauges / histograms with a JSON snapshot."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self.counters.get(name)
            if metric is None:
                metric = self.counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self.gauges.get(name)
            if metric is None:
                metric = self.gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self.histograms.get(name)
            if metric is None:
                metric = self.histograms[name] = Histogram()
            return metric

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                "counters": {name: metric.snapshot()
                             for name, metric in sorted(self.counters.items())},
                "gauges": {name: metric.snapshot()
                           for name, metric in sorted(self.gauges.items())},
                "histograms": {name: metric.snapshot()
                               for name, metric in sorted(self.histograms.items())},
            }


# -- the handle -----------------------------------------------------------------------

class Telemetry:
    """One run's telemetry: event emission + metrics, or a guaranteed no-op.

    Parameters
    ----------
    trace_dir:
        Directory for ``events.jsonl`` and ``metrics.json``.
        ``None`` keeps everything off disk (events still reach attached
        sinks and metrics still accumulate when *enabled*).
    enabled:
        Master switch; defaults to ``trace_dir is not None``.  A
        disabled handle never opens a file, never allocates a record and
        never calls a sink -- the hot-path guard is the single
        ``self.enabled`` attribute check at the top of every method.
    run_id:
        Stamped into every record.
    """

    def __init__(self, trace_dir: Optional[str] = None, *,
                 run_id: Optional[str] = None,
                 enabled: Optional[bool] = None):
        self.enabled = bool(trace_dir is not None if enabled is None else enabled)
        self.trace_dir = trace_dir
        self.run_id = run_id or (new_run_id() if self.enabled else "")
        self.metrics = MetricsRegistry() if self.enabled else None
        self._seq = 0
        self._lock = threading.Lock()
        self._sinks: List[Callable[[TraceEvent], None]] = []
        self._handle = None
        self._closed = False
        if self.enabled and trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            self._handle = open(os.path.join(trace_dir, EVENTS_FILE), "a",
                                encoding="utf-8")

    # -- sinks -------------------------------------------------------------------------
    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Attach *sink*; it receives every record this handle emits."""
        self._sinks.append(sink)

    # -- emission ----------------------------------------------------------------------
    def event(self, name: str, **fields) -> Optional[TraceEvent]:
        """Emit one point event (a no-op when disabled)."""
        if not self.enabled:
            return None
        return self._emit("event", name, time.monotonic(), None, fields)

    @contextmanager
    def span(self, name: str, **fields) -> Iterator[Dict[str, object]]:
        """Time a block; the span record is emitted when the block exits.

        Yields the mutable ``fields`` dict so the block can attach
        results (counts, status) that are only known at the end.
        """
        if not self.enabled:
            yield fields
            return
        start = time.monotonic()
        try:
            yield fields
        finally:
            self._emit("span", name, start, time.monotonic() - start, fields)

    def _emit(self, kind: str, name: str, t: float, dur: Optional[float],
              fields: Dict[str, object]) -> TraceEvent:
        with self._lock:
            self._seq += 1
            event = TraceEvent(run_id=self.run_id, seq=self._seq, kind=kind,
                               name=name, t=t, dur=dur, fields=fields)
            if self._handle is not None:
                # Flushed per record so a killed run loses at most the
                # line being written (readers skip a torn tail).
                self._handle.write(format_event_line(event) + "\n")
                self._handle.flush()
        for sink in self._sinks:
            sink(event)
        return event

    # -- metrics -----------------------------------------------------------------------
    def counter(self, name: str):
        if not self.enabled:
            return _NULL_METRIC
        return self.metrics.counter(name)

    def gauge(self, name: str):
        if not self.enabled:
            return _NULL_METRIC
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        if not self.enabled:
            return _NULL_METRIC
        return self.metrics.histogram(name)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The metrics document (also what ``metrics.json`` holds)."""
        document: Dict[str, object] = {
            "version": TRACE_FORMAT_VERSION,
            "run_id": self.run_id,
        }
        if self.metrics is not None:
            document.update(self.metrics.snapshot())
        return document

    def write_metrics(self) -> Optional[str]:
        """Write ``metrics.json`` under the trace dir; returns its path."""
        if not self.enabled or self.trace_dir is None:
            return None
        path = os.path.join(self.trace_dir, METRICS_FILE)
        atomic_write_text(
            path, json.dumps(self.metrics_snapshot(), indent=2,
                             sort_keys=True) + "\n")
        return path

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Close the event log and snapshot the metrics; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.write_metrics()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The shared disabled handle: the default for every instrumented layer.
NULL_TELEMETRY = Telemetry(enabled=False)


def emit_module_hotspots(telemetry: Telemetry, adapter, module, *,
                         label: str, top: int = 10) -> bool:
    """Profile one in-process evaluation of *module* and emit its hotspots.

    Runs ``adapter.evaluate(module)`` on the adapter's own device switched
    to the oracle tier for that one evaluation (per-instruction profiles
    are oracle reports; the JIT every search evaluation runs on records
    none), then restores the device's tier -- also when the evaluation
    raises -- and emits a ``profile.hotspots`` event with the top
    instructions by attributed cycles.  Strictly opt-in -- callers invoke
    this once per run/leg when tracing is on, so the extra evaluation
    never taxes an untraced run.  Best-effort: adapters without an
    in-process device (or a trapped evaluation) simply emit nothing.
    """
    if not telemetry.enabled:
        return False
    device = getattr(adapter, "device", None)
    if device is None or module is None:
        return False
    previous = device.interpreter_tier
    device.interpreter_tier = "oracle"
    try:
        adapter.evaluate(module)
    except Exception:  # noqa: BLE001 - profiling must never fail the run
        return False
    finally:
        device.interpreter_tier = previous
    profile = getattr(device, "last_profile", None)
    if profile is None or not getattr(profile, "instructions", None):
        return False
    hotspots = [
        {"location": spot.location or "<unknown>", "opcode": spot.opcode,
         "cycles": spot.cycles, "executions": spot.executions}
        for spot in profile.hottest(top)
    ]
    telemetry.event("profile.hotspots", label=label, hotspots=hotspots)
    return True
