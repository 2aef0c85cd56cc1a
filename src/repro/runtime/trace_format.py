"""The on-disk trace format: JSONL events and their summary.

A *trace directory* is the run-scoped record a
:class:`~repro.runtime.telemetry.Telemetry` handle writes:

* ``events.jsonl`` -- one line per event record, appended in emission
  order by the one process that owns the run (pool workers hand their
  busy time back to it instead of writing records of their own);
* ``metrics.json`` -- the final snapshot of the run's metrics registry
  (counters / gauges / histograms), tagged with the run id.

Every event record carries::

    {"v": 2,                  # TRACE_FORMAT_VERSION
     "run": "<run id>",       # one id per Telemetry run
     "seq": 17,               # sequence number within the run, from 1
     "kind": "event",         # "event" (point) or "span"
     "name": "engine.batch",  # dotted event name
     "t": 12345.678,          # monotonic-clock timestamp (span: start)
     "dur": 0.042,            # spans only: seconds
     "fields": {...}}         # JSON-serialisable payload
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Bump when a record's required keys or their meaning change.
TRACE_FORMAT_VERSION = 2

#: File names inside a trace directory.
EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.json"

__all__ = [
    "TRACE_FORMAT_VERSION",
    "EVENTS_FILE",
    "METRICS_FILE",
    "TraceEvent",
    "event_to_dict",
    "event_from_dict",
    "format_event_line",
    "parse_event_line",
    "read_events",
    "load_trace",
    "load_metrics",
    "summarize_trace",
    "TraceSummary",
]


@dataclass(frozen=True)
class TraceEvent:
    """One record of the event log (a point event or a completed span)."""

    run_id: str
    seq: int
    kind: str           # "event" | "span"
    name: str
    t: float            # monotonic timestamp (span start for spans)
    dur: Optional[float] = None   # spans only
    fields: Dict[str, object] = field(default_factory=dict, hash=False)

    @property
    def end(self) -> float:
        return self.t + (self.dur or 0.0)


def event_to_dict(event: TraceEvent) -> Dict[str, object]:
    record: Dict[str, object] = {
        "v": TRACE_FORMAT_VERSION,
        "run": event.run_id,
        "seq": event.seq,
        "kind": event.kind,
        "name": event.name,
        "t": event.t,
    }
    if event.dur is not None:
        record["dur"] = event.dur
    if event.fields:
        record["fields"] = event.fields
    return record


def event_from_dict(record: Dict[str, object]) -> TraceEvent:
    """Parse one record dict; raises ``ValueError`` on schema violations."""
    if not isinstance(record, dict):
        raise ValueError(f"event record must be an object, got {type(record).__name__}")
    if record.get("v") != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {record.get('v')!r}")
    kind = record.get("kind")
    if kind not in ("event", "span"):
        raise ValueError(f"unknown event kind {kind!r}")
    if not isinstance(record.get("name"), str) or not record["name"]:
        raise ValueError(f"event name must be a non-empty string, "
                         f"got {record.get('name')!r}")
    try:
        return TraceEvent(
            run_id=str(record["run"]),
            seq=int(record["seq"]),
            kind=str(kind),
            name=str(record["name"]),
            t=float(record["t"]),
            dur=float(record["dur"]) if record.get("dur") is not None else None,
            fields=dict(record.get("fields", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed event record: {exc}") from exc


def format_event_line(event: TraceEvent) -> str:
    """One compact JSONL line (no newline) for *event*."""
    return json.dumps(event_to_dict(event), sort_keys=True,
                      separators=(",", ":"))


def parse_event_line(line: str) -> TraceEvent:
    return event_from_dict(json.loads(line))


def read_events(path: str) -> List[TraceEvent]:
    """Events of one JSONL stream, in file order.

    Tolerant of a torn tail: a process killed mid-write leaves at most one
    truncated last line, which is skipped rather than poisoning the whole
    stream (the preceding lines were flushed per event).
    """
    events: List[TraceEvent] = []
    if not os.path.exists(path):
        return events
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(parse_event_line(line))
            except (ValueError, KeyError):
                continue
    return events


def load_trace(trace_dir: str) -> List[TraceEvent]:
    """All events of a trace directory, in emission order."""
    return read_events(os.path.join(trace_dir, EVENTS_FILE))


def load_metrics(trace_dir: str) -> Optional[Dict[str, object]]:
    """The ``metrics.json`` document of a trace directory, or ``None``."""
    path = os.path.join(trace_dir, METRICS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


# -- summaries ------------------------------------------------------------------------

@dataclass
class PhaseStat:
    """Aggregated timing of one span name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Digest of one trace directory, renderable as a human report."""

    run_id: str
    event_count: int
    duration_seconds: float
    phases: List[PhaseStat]
    cache_hits: int
    cache_misses: int
    evaluations: int
    executor_busy_seconds: float
    lane_busy_seconds: float
    lane_capacity_seconds: float
    hotspots: List[Dict[str, object]]
    counters: Dict[str, float]

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def evaluations_per_second(self) -> float:
        return (self.evaluations / self.executor_busy_seconds
                if self.executor_busy_seconds > 0 else 0.0)

    @property
    def executor_utilization(self) -> float:
        """Fraction of the executor's lane capacity (``jobs x`` the wall
        time of every ``engine.batch``) its lanes spent evaluating."""
        if self.lane_capacity_seconds <= 0:
            return 0.0
        return min(1.0, self.lane_busy_seconds / self.lane_capacity_seconds)

    def render(self) -> str:
        lines = [
            f"run {self.run_id or '<unknown>'}: {self.event_count} events, "
            f"{self.duration_seconds:.2f}s",
        ]
        if self.phases:
            lines.append("")
            lines.append("phase timing:")
            width = max(len(phase.name) for phase in self.phases)
            for phase in sorted(self.phases, key=lambda p: -p.total_seconds):
                lines.append(
                    f"  {phase.name.ljust(width)}  x{phase.count:<5d} "
                    f"{phase.total_seconds:8.3f}s total  "
                    f"{phase.mean_seconds * 1e3:8.2f}ms mean")
        lookups = self.cache_hits + self.cache_misses
        lines.append("")
        lines.append(
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
            + (f" ({self.cache_hit_rate:.0%} hit rate)" if lookups else ""))
        lines.append(
            f"evaluations: {self.evaluations} in "
            f"{self.executor_busy_seconds:.3f}s of executor time"
            + (f" ({self.evaluations_per_second:.1f} evaluations/sec)"
               if self.executor_busy_seconds > 0 else ""))
        lines.append(f"executor utilization: {self.executor_utilization:.0%}")
        if self.hotspots:
            lines.append("")
            lines.append("hotspots (top instructions by attributed cycles):")
            for spot in self.hotspots[:10]:
                lines.append(
                    f"  {spot.get('location', '<unknown>')}  "
                    f"{spot.get('opcode', '?')}  "
                    f"{float(spot.get('cycles', 0.0)):.0f} cycles "
                    f"({int(spot.get('executions', 0))} executions)")
        return "\n".join(lines)


def _counter_value(counters: Dict[str, float], name: str) -> float:
    value = counters.get(name, 0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def summarize_trace(trace_dir: str) -> TraceSummary:
    """Digest *trace_dir* (events + metrics snapshot) into a summary."""
    events = load_trace(trace_dir)
    metrics = load_metrics(trace_dir) or {}
    counters_raw = metrics.get("counters", {})
    counters = {name: float(value) for name, value in counters_raw.items()
                if isinstance(value, (int, float))}

    phases: Dict[str, PhaseStat] = {}
    executor_busy = 0.0
    lane_busy = 0.0
    lane_capacity = 0.0
    hotspots: List[Dict[str, object]] = []
    run_id = str(metrics.get("run_id", ""))
    for event in events:
        if not run_id:
            run_id = event.run_id
        if event.kind == "span":
            stat = phases.setdefault(event.name, PhaseStat(event.name))
            stat.count += 1
            stat.total_seconds += event.dur or 0.0
            if event.name == "engine.batch":
                wall = event.dur or 0.0
                executor_busy += wall
                jobs = event.fields.get("jobs")
                busy = event.fields.get("busy")
                if isinstance(jobs, int) and jobs > 1:
                    lane_capacity += wall * jobs
                    lane_busy += busy if isinstance(busy, (int, float)) else 0.0
                else:
                    # One lane: the calling process, busy for the whole batch.
                    lane_capacity += wall
                    lane_busy += wall
        elif event.name == "profile.hotspots":
            spots = event.fields.get("hotspots")
            if isinstance(spots, list):
                hotspots = [spot for spot in spots if isinstance(spot, dict)]

    if events:
        start = min(event.t for event in events)
        end = max(event.end for event in events)
        duration = max(0.0, end - start)
    else:
        duration = 0.0

    return TraceSummary(
        run_id=run_id,
        event_count=len(events),
        duration_seconds=duration,
        phases=list(phases.values()),
        cache_hits=int(_counter_value(counters, "cache.hits")),
        cache_misses=int(_counter_value(counters, "cache.misses")),
        evaluations=int(_counter_value(counters, "engine.evaluations")),
        executor_busy_seconds=executor_busy,
        lane_busy_seconds=lane_busy,
        lane_capacity_seconds=lane_capacity,
        hotspots=hotspots,
        counters=counters,
    )
