"""Run-scoped telemetry: a structured event log plus run metrics.

Every layer of the evaluation runtime that used to narrate itself with
ad-hoc ``print()`` lines now emits through one :class:`Telemetry` handle:

* **events** -- point events and spans appended as JSONL records (see
  :mod:`repro.runtime.trace_format` for the schema) to ``events.jsonl``
  under a trace directory, and fanned out to any attached *sinks* (the
  console reporter in :mod:`repro.runtime.console`);
* **metrics** -- counters, gauges and histogram summaries, plain
  numbers in the handle's ``counters``, ``gauges`` and ``histograms``
  dicts, snapshotted to ``metrics.json`` on close.

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

from ..gpu.profiler import ProfileCollector
from .cache import atomic_write_text
from .trace_format import (
    EVENTS_FILE,
    METRICS_FILE,
    TRACE_FORMAT_VERSION,
    TraceEvent,
    format_event_line,
)

__all__ = [
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
        #: Metric name -> value, or -> ``count``/``total``/``min``/``max``
        #: for a histogram; filled only when *enabled*.
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}
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
    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (created at 0 on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold *value* into histogram *name*'s summary (no samples kept)."""
        if not self.enabled:
            return
        with self._lock:
            summary = self.histograms.setdefault(
                name, {"count": 0, "total": 0.0, "min": value, "max": value})
            summary["count"] += 1
            summary["total"] += value
            summary["min"] = min(summary["min"], value)
            summary["max"] = max(summary["max"], value)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The metrics document (also what ``metrics.json`` holds)."""
        document: Dict[str, object] = {
            "version": TRACE_FORMAT_VERSION,
            "run_id": self.run_id,
        }
        if self.enabled:
            with self._lock:
                document["counters"] = dict(sorted(self.counters.items()))
                document["gauges"] = dict(sorted(self.gauges.items()))
                document["histograms"] = {
                    name: dict(summary, mean=summary["total"] / summary["count"])
                    for name, summary in sorted(self.histograms.items())}
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
    none), with a :class:`~repro.gpu.profiler.ProfileCollector` held as
    the device's ``profile`` so every launch of the evaluation records
    into it.  The device's tier is restored and its profile released --
    also when the evaluation raises -- and a ``profile.hotspots`` event
    names the top instructions by attributed cycles.  Strictly opt-in -- callers
    invoke this once per run/leg when tracing is on, so the extra
    evaluation never taxes an untraced run.  Best-effort: adapters
    without an in-process device (or a trapped evaluation) simply emit
    nothing.
    """
    if not telemetry.enabled:
        return False
    device = getattr(adapter, "device", None)
    if device is None or module is None:
        return False
    previous = device.interpreter_tier
    device.interpreter_tier = "oracle"
    profile = device.profile = ProfileCollector()
    try:
        adapter.evaluate(module)
    except Exception:  # noqa: BLE001 - profiling must never fail the run
        return False
    finally:
        device.interpreter_tier = previous
        device.profile = None
    if not profile.instructions:
        return False
    hotspots = [
        {"location": spot.location or "<unknown>", "opcode": spot.opcode,
         "cycles": spot.cycles, "executions": spot.executions}
        for spot in profile.hottest(top)
    ]
    telemetry.event("profile.hotspots", label=label, hotspots=hotspots)
    return True
