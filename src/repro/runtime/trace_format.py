"""The on-disk trace format: JSONL events, deterministic merge, summaries.

A *trace directory* is the run-scoped record a
:class:`~repro.runtime.telemetry.Telemetry` handle writes:

* ``events-<emitter>.jsonl`` -- one stream per emitter (the main process
  plus one per pool worker), each line one event record, appended in
  emission order;
* ``events.jsonl`` -- the merged stream, produced on close (or lazily by
  the readers here): every per-emitter part folded into one
  deterministic total order;
* ``metrics.json`` -- the final snapshot of the run's metrics registry
  (counters / gauges / histograms), tagged with the run id.

Every event record carries::

    {"v": 1,                  # TRACE_FORMAT_VERSION
     "run": "<run id>",       # one id per Telemetry run
     "emitter": "main",       # process/worker identity of the writer
     "seq": 17,               # per-emitter sequence number, from 1
     "kind": "event",         # "event" (point) or "span"
     "name": "engine.batch",  # dotted event name
     "t": 12345.678,          # monotonic-clock timestamp (span: start)
     "dur": 0.042,            # spans only: seconds
     "fields": {...}}         # JSON-serialisable payload

Merging is **deterministic under interleaving**: the total order is
``(t, emitter, seq)``, so however the per-emitter streams were cut into
files (or in which order the files are read), the merged log is
byte-for-byte identical.  Within one emitter ``t`` is monotone with
``seq`` (one clock, sequential emission), so per-emitter order is always
preserved.  The property test in ``tests/runtime/test_telemetry.py``
pins this down; the future service arc streams exactly these records to
clients, ordering concurrent workers the same way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import atomic_write_text

#: Bump when a record's required keys or their meaning change.
TRACE_FORMAT_VERSION = 1

#: File names inside a trace directory.
MERGED_EVENTS_FILE = "events.jsonl"
EVENT_PART_PREFIX = "events-"
METRICS_FILE = "metrics.json"

__all__ = [
    "TRACE_FORMAT_VERSION",
    "MERGED_EVENTS_FILE",
    "EVENT_PART_PREFIX",
    "METRICS_FILE",
    "TraceEvent",
    "event_to_dict",
    "event_from_dict",
    "format_event_line",
    "parse_event_line",
    "read_events",
    "merge_events",
    "merge_trace_dir",
    "load_trace",
    "load_metrics",
    "summarize_trace",
    "TraceSummary",
]


@dataclass(frozen=True)
class TraceEvent:
    """One record of the event log (a point event or a completed span)."""

    run_id: str
    emitter: str
    seq: int
    kind: str           # "event" | "span"
    name: str
    t: float            # monotonic timestamp (span start for spans)
    dur: Optional[float] = None   # spans only
    fields: Dict[str, object] = field(default_factory=dict, hash=False)

    @property
    def sort_key(self) -> Tuple[float, str, int]:
        """The deterministic merge order: time, then emitter, then seq."""
        return (self.t, self.emitter, self.seq)

    @property
    def end(self) -> float:
        return self.t + (self.dur or 0.0)


def event_to_dict(event: TraceEvent) -> Dict[str, object]:
    record: Dict[str, object] = {
        "v": TRACE_FORMAT_VERSION,
        "run": event.run_id,
        "emitter": event.emitter,
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
            emitter=str(record["emitter"]),
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

    Tolerant of a torn tail: a worker killed mid-write leaves at most one
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


def merge_events(streams: Iterable[Sequence[TraceEvent]]) -> List[TraceEvent]:
    """Fold per-emitter streams into one deterministic total order.

    The result is independent of how the events were partitioned into
    *streams* and of the iteration order of *streams*: duplicates (the
    same ``(run, emitter, seq)`` read from both a part file and an
    earlier merge) collapse to one record, and the order is
    ``(t, emitter, seq)``.
    """
    seen: Dict[Tuple[str, str, int], TraceEvent] = {}
    for stream in streams:
        for event in stream:
            seen.setdefault((event.run_id, event.emitter, event.seq), event)
    return sorted(seen.values(), key=lambda event: event.sort_key)


def _part_paths(trace_dir: str) -> List[str]:
    if not os.path.isdir(trace_dir):
        return []
    return sorted(
        os.path.join(trace_dir, name)
        for name in os.listdir(trace_dir)
        if name.startswith(EVENT_PART_PREFIX) and name.endswith(".jsonl"))


def merge_trace_dir(trace_dir: str) -> str:
    """Merge every per-emitter part (plus any prior merge) into
    ``events.jsonl``, remove the parts and return the merged file's path.

    Idempotent: re-merging an already merged directory is a no-op, and a
    directory holding both a previous merge and fresh parts folds them
    together without duplicating records.
    """
    merged_path = os.path.join(trace_dir, MERGED_EVENTS_FILE)
    parts = _part_paths(trace_dir)
    streams = [read_events(merged_path)] + [read_events(path) for path in parts]
    merged = merge_events(streams)
    atomic_write_text(
        merged_path,
        "".join(format_event_line(event) + "\n" for event in merged))
    for path in parts:
        try:
            os.unlink(path)
        except OSError:
            pass
    return merged_path


def load_trace(trace_dir: str) -> List[TraceEvent]:
    """All events of a trace directory, merged (without rewriting files)."""
    merged_path = os.path.join(trace_dir, MERGED_EVENTS_FILE)
    streams = [read_events(merged_path)]
    streams.extend(read_events(path) for path in _part_paths(trace_dir))
    return merge_events(streams)


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
    emitters: List[str]
    event_count: int
    duration_seconds: float
    phases: List[PhaseStat]
    cache_hits: int
    cache_misses: int
    evaluations: int
    executor_busy_seconds: float
    worker_busy_seconds: float
    worker_jobs: int
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
        """Fraction of the executor-busy window its lanes spent evaluating.

        With per-worker task spans present this is ``worker busy /
        (jobs x batch wall)``; without them (serial executor, whose lane
        is busy whenever a batch runs) it degrades to 1.0 for any run
        that executed batches.
        """
        if self.executor_busy_seconds <= 0:
            return 0.0
        if self.worker_busy_seconds <= 0:
            return 1.0
        capacity = self.executor_busy_seconds * max(1, self.worker_jobs)
        return min(1.0, self.worker_busy_seconds / capacity)

    def render(self) -> str:
        lines = [
            f"run {self.run_id or '<unknown>'}: {self.event_count} events "
            f"from {len(self.emitters)} emitter(s), "
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
    """Digest *trace_dir* (merged events + metrics snapshot) into a summary."""
    events = load_trace(trace_dir)
    metrics = load_metrics(trace_dir) or {}
    counters_raw = metrics.get("counters", {})
    counters = {name: float(value) for name, value in counters_raw.items()
                if isinstance(value, (int, float))}

    phases: Dict[str, PhaseStat] = {}
    executor_busy = 0.0
    worker_busy = 0.0
    worker_jobs = 0
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
                executor_busy += event.dur or 0.0
                jobs = event.fields.get("jobs")
                if isinstance(jobs, int):
                    worker_jobs = max(worker_jobs, jobs)
            elif event.name == "worker.evaluate":
                worker_busy += event.dur or 0.0
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
        emitters=sorted({event.emitter for event in events}),
        event_count=len(events),
        duration_seconds=duration,
        phases=list(phases.values()),
        cache_hits=int(_counter_value(counters, "cache.hits")),
        cache_misses=int(_counter_value(counters, "cache.misses")),
        evaluations=int(_counter_value(counters, "engine.evaluations")),
        executor_busy_seconds=executor_busy,
        worker_busy_seconds=worker_busy,
        worker_jobs=worker_jobs,
        hotspots=hotspots,
        counters=counters,
    )
