"""The parallel evaluation runtime.

This package is the architectural seam between "what to evaluate" (search
and analysis algorithms) and "how to evaluate it" (serially, across a
process pool, against a persistent cache).  Typical usage::

    from repro.runtime import EvaluationEngine, FitnessCache, make_executor

    engine = EvaluationEngine(adapter,
                              executor=make_executor(jobs=4),
                              cache=FitnessCache("fitness-cache.sqlite"))
    results = engine.evaluate_many([ind.edits for ind in population])
    ...
    engine.close()   # flush the cache, stop the workers

See :mod:`repro.runtime.engine` (the batch API over the serial and
process-pool executors), :mod:`repro.runtime.cache` (content-addressed
fitness cache), :mod:`repro.runtime.sqlite_store` (its incremental
WAL-mode SQLite disk tier, which also imports JSON cache documents),
:mod:`repro.runtime.checkpoint` (the :class:`CheckpointableSearch`
protocol behind checkpoint/resume for GEVO and both baselines) and
:mod:`repro.runtime.sweep` (the multi-architecture sweep orchestrator
behind ``repro sweep``).
Observability lives in :mod:`repro.runtime.telemetry` (the run-scoped
:class:`Telemetry` handle: structured event log + metrics registry,
a true no-op when disabled), :mod:`repro.runtime.trace_format` (the
JSONL schema, deterministic multi-process merge and trace summaries)
and :mod:`repro.runtime.console` (the logging-based console reporter
that renders telemetry events).  A fuller guide lives in
``docs/runtime.md`` and ``docs/observability.md``.
"""

from .cache import (
    CacheKey,
    CacheStats,
    FitnessCache,
    canonical_edit_hash,
    canonical_edit_key,
    result_from_dict,
    result_to_dict,
)
from .checkpoint import (
    CheckpointableSearch,
    EvaluationLedger,
    SearchCheckpoint,
    deserialize_history,
    deserialize_individual,
    resolve_checkpoint,
    serialize_history,
    serialize_individual,
)
from .faultpoints import SimulatedCrash, kill_point
from .engine import (
    EngineStats,
    EvaluationEngine,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
    make_executor,
)
from .console import ConsoleReporter, configure_console, console_logger
from .sqlite_store import SqliteCacheStore
from .sweep import (
    LegOutcome,
    SweepLeg,
    SweepReport,
    SweepSpec,
    make_adapter,
    run_sweep,
)
from .telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    emit_module_hotspots,
    new_run_id,
    telemetry_of,
)
from .trace_format import (
    TraceEvent,
    TraceSummary,
    load_metrics,
    load_trace,
    merge_events,
    merge_trace_dir,
    read_events,
    summarize_trace,
)

__all__ = [
    "CacheKey",
    "CacheStats",
    "CheckpointableSearch",
    "ConsoleReporter",
    "EngineStats",
    "EvaluationEngine",
    "EvaluationLedger",
    "Executor",
    "FitnessCache",
    "LegOutcome",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "ParallelExecutor",
    "SearchCheckpoint",
    "SerialExecutor",
    "SimulatedCrash",
    "SqliteCacheStore",
    "SweepLeg",
    "SweepReport",
    "SweepSpec",
    "Telemetry",
    "TraceEvent",
    "TraceSummary",
    "canonical_edit_hash",
    "canonical_edit_key",
    "configure_console",
    "console_logger",
    "default_jobs",
    "deserialize_history",
    "deserialize_individual",
    "emit_module_hotspots",
    "kill_point",
    "load_metrics",
    "load_trace",
    "make_adapter",
    "make_executor",
    "merge_events",
    "merge_trace_dir",
    "new_run_id",
    "read_events",
    "resolve_checkpoint",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
    "serialize_history",
    "serialize_individual",
    "summarize_trace",
    "telemetry_of",
]
