"""The telemetry subsystem: schema, no-op guarantee, one writer.

Five contracts are pinned here:

* the JSONL trace schema round-trips exactly (and rejects malformed
  records loudly);
* a disabled :class:`~repro.runtime.telemetry.Telemetry` handle is a true
  no-op -- zero events, zero files, no metrics -- so un-traced runs pay
  one attribute check and nothing else;
* the metrics document keeps its keys and counter values;
* the process that owns the run is the trace's only writer: a process
  pool's workers hand their busy time back, and the engine's
  ``engine.batch`` spans carry it;
* a traced sweep's per-leg counters match its ``report.json`` exactly
  (the acceptance criterion of the observability PR).
"""

import json
import logging
import os

import pytest

from repro.cli import main
from repro.runtime import EvaluationEngine, ParallelExecutor
from repro.runtime.console import ConsoleReporter, configure_console
from repro.runtime.sweep import SweepSpec, run_sweep
from repro.runtime.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    emit_module_hotspots,
    new_run_id,
)
from repro.runtime.trace_format import (
    EVENTS_FILE,
    METRICS_FILE,
    TRACE_FORMAT_VERSION,
    TraceEvent,
    event_from_dict,
    event_to_dict,
    format_event_line,
    load_metrics,
    load_trace,
    parse_event_line,
    read_events,
    summarize_trace,
)
from repro.workloads import ToyWorkloadAdapter, toy_discovered_edits


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


@pytest.fixture(scope="module")
def edits(adapter):
    return toy_discovered_edits(adapter.kernel)


class TestSchemaRoundTrip:
    def test_event_round_trips_through_dict_and_line(self):
        event = TraceEvent(run_id="r", seq=3, kind="span",
                           name="engine.batch", t=1.5, dur=0.25,
                           fields={"batch": 4, "label": "x"})
        assert event_from_dict(event_to_dict(event)) == event
        assert parse_event_line(format_event_line(event)) == event

    def test_point_event_omits_duration(self):
        event = TraceEvent(run_id="r", seq=1, kind="event",
                           name="cache.flush", t=0.0)
        record = event_to_dict(event)
        assert "dur" not in record
        assert event_from_dict(record) == event

    @pytest.mark.parametrize("mutation", [
        {"v": 99},              # unknown format version
        {"kind": "trace"},      # unknown record kind
        {"seq": "three"},       # non-integer sequence number
        {"name": None},         # unnamed event
        {"v": 1},               # format 1 named the emitter of each record
    ])
    def test_malformed_records_are_rejected(self, mutation):
        record = event_to_dict(TraceEvent(run_id="r", seq=1,
                                          kind="event", name="x", t=0.0))
        record.update(mutation)
        with pytest.raises(ValueError):
            event_from_dict(record)

    def test_reader_skips_a_torn_tail(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        whole = format_event_line(TraceEvent(run_id="r", seq=1, kind="event",
                                             name="a", t=0.0))
        path.write_text(whole + "\n" + '{"v": 2, "torn')
        events = read_events(str(path))
        assert [event.name for event in events] == ["a"]


class TestDisabledIsANoOp:
    def test_null_telemetry_emits_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.event("anything", x=1) is None
        with NULL_TELEMETRY.span("work") as fields:
            fields["y"] = 2  # the dict is still usable, just never emitted
        NULL_TELEMETRY.count("c")
        NULL_TELEMETRY.count("zero", 0)
        NULL_TELEMETRY.gauge("g", 3)
        NULL_TELEMETRY.observe("h", 1.0)
        assert (NULL_TELEMETRY.counters, NULL_TELEMETRY.gauges,
                NULL_TELEMETRY.histograms) == ({}, {}, {})
        assert NULL_TELEMETRY.metrics_snapshot() == {
            "version": TRACE_FORMAT_VERSION, "run_id": ""}
        assert os.listdir(tmp_path) == []

    def test_disabled_handle_writes_no_files(self, tmp_path):
        trace_dir = tmp_path / "trace"
        telemetry = Telemetry(str(trace_dir), enabled=False)
        telemetry.event("x")
        telemetry.count("c")
        telemetry.gauge("g", 3)
        telemetry.observe("h", 1.0)
        telemetry.close()
        assert not trace_dir.exists()

    def test_untraced_engine_writes_no_files(self, adapter, edits, tmp_path):
        engine = EvaluationEngine(adapter)
        engine.evaluate_many([[edits[0]], [edits[1]]])
        engine.close()
        assert engine.telemetry is NULL_TELEMETRY
        assert os.listdir(tmp_path) == []


class TestSingleWriter:
    def test_pool_batches_report_busy_time(self, adapter, edits, tmp_path):
        """Pool workers write nothing: the directory holds the one event
        log and the metrics, and every batch span carries the busy
        seconds the workers handed back."""
        trace_dir = str(tmp_path / "trace")
        telemetry = Telemetry(trace_dir, run_id="mp")
        engine = EvaluationEngine(adapter, executor=ParallelExecutor(2),
                                  telemetry=telemetry)
        engine.evaluate_many([[edit] for edit in edits[:4]])
        engine.close()
        telemetry.close()
        assert sorted(os.listdir(trace_dir)) == [EVENTS_FILE, METRICS_FILE]
        with open(os.path.join(trace_dir, EVENTS_FILE), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records and all(record["v"] == 2 and "emitter" not in record
                               for record in records)
        spans = [event for event in load_trace(trace_dir)
                 if event.name == "engine.batch"]
        assert len(spans) == 1 and spans[0].fields["jobs"] == 2
        assert spans[0].fields["busy"] > 0
        summary = summarize_trace(trace_dir)
        assert 0 < summary.executor_utilization <= 1
        assert "executor utilization:" in summary.render()

    def test_serial_run_is_fully_utilized(self, adapter, edits, tmp_path):
        """The serial executor's one lane is the calling process, busy for
        the whole of every batch."""
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="serial") as telemetry:
            engine = EvaluationEngine(adapter, telemetry=telemetry)
            engine.evaluate_many([[edit] for edit in edits])
            engine.evaluate_many([list(edits)])
            engine.close()
        spans = [event for event in load_trace(trace_dir)
                 if event.name == "engine.batch"]
        assert len(spans) == 2
        assert all(span.fields["busy"] > 0 for span in spans)
        assert "executor utilization: 100%" in summarize_trace(trace_dir).render()


def _metrics_shape(trace_dir):
    """A metrics document without its timings: gauges by name only."""
    metrics = load_metrics(trace_dir)
    return dict(metrics, run_id=None, gauges=sorted(metrics["gauges"]))


ENGINE_GAUGES = ["engine.cache_size", "engine.evaluations_per_second",
                 "engine.wall_clock_seconds"]


class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        telemetry = Telemetry(run_id="r", enabled=True)
        telemetry.count("cache.hits")
        telemetry.count("cache.hits", 2)
        telemetry.count("cache.misses", 0)  # an update of 0 creates the key
        telemetry.gauge("engine.cache_size", 7)
        for value in (1.0, 3.0):
            telemetry.observe("batch.seconds", value)
        assert telemetry.metrics_snapshot() == {
            "version": TRACE_FORMAT_VERSION, "run_id": "r",
            "counters": {"cache.hits": 3, "cache.misses": 0},
            "gauges": {"engine.cache_size": 7},
            "histograms": {"batch.seconds": {"count": 2, "total": 4.0,
                                             "mean": 2.0, "min": 1.0,
                                             "max": 3.0}},
        }

    def test_traced_search_keeps_the_metrics_document(self, capsys, tmp_path):
        trace_dir = str(tmp_path)
        assert main(["search", "toy", "--population", "4", "--generations", "2",
                     "--seed", "1", "--trace", trace_dir]) == 0
        assert _metrics_shape(trace_dir) == {
            "version": TRACE_FORMAT_VERSION, "run_id": None,
            "counters": {"cache.hits": 6, "cache.misses": 3,
                         "engine.batches": 3, "engine.evaluations": 3},
            "gauges": ENGINE_GAUGES, "histograms": {}}

    def test_pool_engine_keeps_the_metrics_document(self, adapter, edits,
                                                    tmp_path):
        """One all-miss batch on a process pool: ``cache.hits`` was only
        ever updated by 0 and still appears."""
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="pool") as telemetry:
            engine = EvaluationEngine(adapter, executor=ParallelExecutor(2),
                                      telemetry=telemetry)
            engine.evaluate_many([[edit] for edit in edits[:4]])
            engine.close()
        assert _metrics_shape(trace_dir) == {
            "version": TRACE_FORMAT_VERSION, "run_id": None,
            "counters": {"cache.hits": 0, "cache.misses": 3,
                         "engine.batches": 1, "engine.evaluations": 3},
            "gauges": ENGINE_GAUGES, "histograms": {}}

    def test_run_ids_are_unique_and_sortable(self):
        first, second = new_run_id(), new_run_id()
        assert first != second
        assert "-" in first


class TestEngineInstrumentation:
    def test_batch_spans_and_cache_counters(self, adapter, edits, tmp_path):
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="r") as telemetry:
            engine = EvaluationEngine(adapter, telemetry=telemetry)
            engine.evaluate_many([[edits[0]], [edits[1]]])
            engine.evaluate_many([[edits[0]]])  # warm -> cache hit
            engine.close()
        metrics = load_metrics(trace_dir)
        assert metrics["counters"]["engine.evaluations"] == 2
        assert metrics["counters"]["cache.misses"] == 2
        assert metrics["counters"]["cache.hits"] >= 1
        assert metrics["gauges"]["engine.wall_clock_seconds"] > 0
        spans = [event for event in load_trace(trace_dir)
                 if event.name == "engine.batch"]
        # The all-hits batch dispatches no executor work: one span only.
        assert len(spans) == 1
        assert spans[0].fields["fresh"] == 2

    def test_population_batch_counters(self, adapter, tmp_path):
        """Clone batching surfaces through the engine's telemetry seam:
        group/launch counters plus a batch-size histogram, never print."""
        from repro.gevo.edits import OperandReplace
        from repro.ir.values import Const

        module = adapter.original_module()
        mul_uid = next(
            instruction.uid for instruction in module.instructions()
            if instruction.opcode == "mul"
            and getattr(instruction.operands[1], "value", None) == 3)
        sets = [[OperandReplace(mul_uid, 1, Const(value))]
                for value in (3.0, 4.0, 5.0)]
        trace_dir = str(tmp_path)
        with Telemetry(trace_dir, run_id="r") as telemetry:
            engine = EvaluationEngine(adapter, telemetry=telemetry)
            assert engine.batch_launches_enabled  # serial default: on
            engine.evaluate_many(sets)
            engine.close()
        metrics = load_metrics(trace_dir)
        assert metrics["counters"]["engine.batch_groups"] == 1
        assert metrics["counters"]["engine.batched_launches"] == 3
        histogram = metrics["histograms"]["engine.batch_size"]
        assert histogram["count"] == 1 and histogram["max"] == 3.0

    def test_stats_carry_wall_clock_and_rate(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        engine.evaluate_many([[edits[0]]])
        assert engine.wall_clock_seconds > 0
        assert engine.evaluations_per_second > 0
        assert "evals/s" in engine.summary()
        assert engine.summary().startswith(f"{engine.evaluations} evaluations")

    def test_hotspots_profile_is_opt_in(self, request, tmp_path, monkeypatch):
        """Search evaluations run on the JIT; the hotspot emitter runs its
        one evaluation on the oracle and profiles every launch of it (the
        top rows sit in the workload's main kernels, not in its last
        launch)."""
        top_rows = {
            "adapter": ("saxpy_wasteful.cu:6", "load", 150.0, 2),
            "adept_v1_adapter": ("adept_v1_kernel.cu:42", "syncthreads", 8424.0, 468),
            "simcov_adapter": ("simcov_spread_virions.cu:8", "load", 1638.0, 18),
        }
        for workload, top_row in top_rows.items():
            adapter = request.getfixturevalue(workload)
            device = adapter.device
            assert device.interpreter_tier == "jit" and device.profile is None, workload
            launches = []

            def recording_launch(*args, _launch=device.launch, **kwargs):
                launches.append(_launch(*args, **kwargs))
                return launches[-1]

            monkeypatch.setattr(device, "launch", recording_launch)
            trace_dir = str(tmp_path / workload)
            with Telemetry(trace_dir, run_id="r") as telemetry:
                assert emit_module_hotspots(telemetry, adapter,
                                            adapter.original_module(),
                                            label="test"), workload
            monkeypatch.undo()
            # The tier is restored and the collector released ...
            assert device.interpreter_tier == "jit" and device.profile is None, workload
            # ... after it took the profile of every launch.
            profile = launches[0].profile
            assert all(result.profile is profile for result in launches), workload
            assert profile.total_executions() == sum(
                result.instructions_executed for result in launches), workload
            events = [event for event in load_trace(trace_dir)
                      if event.name == "profile.hotspots"]
            assert len(events) == 1, workload
            top = events[0].fields["hotspots"][0]
            assert (top["location"], top["opcode"], top["cycles"],
                    top["executions"]) == top_row, workload

    def test_hotspots_restore_the_tier_when_the_evaluation_raises(self, tmp_path):
        tiers = []

        class FailingAdapter:
            device = ToyWorkloadAdapter(elements=64).device

            def evaluate(self, module):
                tiers.append(self.device.interpreter_tier)
                raise RuntimeError("evaluation failed")

        adapter = FailingAdapter()
        with Telemetry(str(tmp_path), run_id="r") as telemetry:
            assert not emit_module_hotspots(telemetry, adapter, object(),
                                            label="test")
        assert tiers == ["oracle"]
        assert adapter.device.interpreter_tier == "jit"


class TestSweepAcceptance:
    def test_traced_sweep_matches_report_and_summarizes(self, tmp_path):
        spec = SweepSpec(archs=["P100"], workloads=["toy"], seeds=[0, 1],
                         method="gevo", population=4, generations=2)
        sweep_dir = str(tmp_path / "sweep")
        trace_dir = str(tmp_path / "trace")
        with Telemetry(trace_dir, run_id="acceptance") as telemetry:
            run_sweep(spec, sweep_dir, telemetry=telemetry)

        report = json.load(open(os.path.join(sweep_dir, "report.json")))
        assert report["telemetry"] == {"run_id": "acceptance",
                                       "trace_dir": trace_dir}
        metrics = load_metrics(trace_dir)
        for row in report["legs"]:
            leg_id = (f"{row['method']}-{row['workload']}-{row['arch']}"
                      f"-seed{row['seed']}")
            for key in ("evaluations", "fresh_evaluations", "cache_hits"):
                assert metrics["counters"][f"sweep.leg.{leg_id}.{key}"] == \
                    row[key], f"{leg_id}.{key} diverged from report.json"

        names = {event.name for event in load_trace(trace_dir)}
        assert {"sweep.start", "sweep.leg", "sweep.end", "search.generation",
                "engine.batch"} <= names
        rendered = summarize_trace(trace_dir).render()
        assert "cache:" in rendered and "phase timing:" in rendered

    def test_resumed_sweep_emits_skipped_legs(self, tmp_path):
        spec = SweepSpec(archs=["P100"], workloads=["toy"], seeds=[0],
                         method="gevo", population=4, generations=2)
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(spec, sweep_dir)  # untraced first pass
        trace_dir = str(tmp_path / "trace")
        with Telemetry(trace_dir, run_id="resume") as telemetry:
            report = run_sweep(spec, sweep_dir, resume=True,
                               telemetry=telemetry)
        assert all(row.status == "skipped" for row in report.rows)
        legs = [event for event in load_trace(trace_dir)
                if event.name == "sweep.leg"]
        assert [event.fields["status"] for event in legs] == ["skipped"]
        metrics = load_metrics(trace_dir)
        counter = "sweep.leg.gevo-toy-P100-seed0.fresh_evaluations"
        assert metrics["counters"][counter] == 0


class TestConsoleReporter:
    def test_sweep_leg_event_renders_at_info(self, capsys):
        configure_console()
        reporter = ConsoleReporter()
        reporter(TraceEvent(run_id="r", seq=1, kind="span",
                            name="sweep.leg", t=0.0, dur=1.25,
                            fields={"status": "completed", "leg_id": "leg-0",
                                    "speedup": 1.5, "evaluations": 10,
                                    "fresh_evaluations": 4}))
        out = capsys.readouterr().out
        assert "[completed] leg-0: 1.500x, 10 evaluations (4 fresh, 1.2s)" in out

    def test_resume_replay_event_renders_at_info(self, capsys):
        configure_console()
        reporter = ConsoleReporter()
        reporter(TraceEvent(run_id="r", seq=1, kind="event",
                            name="search.resume_replay", t=0.0,
                            fields={"algorithm": "gevo", "round": 3,
                                    "evaluations": 12,
                                    "path": "/tmp/ckpt.json"}))
        out = capsys.readouterr().out
        assert "resuming from /tmp/ckpt.json (round 3, 12 cached fitness results)" in out

    def test_quiet_suppresses_progress(self, capsys):
        configure_console(quiet=True)
        try:
            reporter = ConsoleReporter()
            reporter(TraceEvent(run_id="r", seq=1, kind="span",
                                name="sweep.leg", t=0.0, dur=0.0,
                                fields={"status": "completed"}))
            assert capsys.readouterr().out == ""
            reporter(TraceEvent(run_id="r", seq=2,
                                kind="event", name="executor.fault", t=0.0,
                                fields={"executor": "parallel",
                                        "error": "boom"}))
            assert "boom" in capsys.readouterr().out
        finally:
            configure_console()  # restore the default level for other tests

    def test_verbose_shows_generations(self, capsys):
        configure_console(verbose=True)
        try:
            reporter = ConsoleReporter()
            reporter(TraceEvent(run_id="r", seq=1,
                                kind="event", name="search.generation", t=0.0,
                                fields={"generation": 3, "best_fitness": 0.5,
                                        "evaluations": 12, "stagnation": 1}))
            assert "generation 3" in capsys.readouterr().out
        finally:
            configure_console()


class TestHotPathStaysClean:
    def test_gpu_interpreter_modules_never_import_telemetry(self):
        """Instrumentation stops at the engine/executor boundary.

        The simulator's interpreter tiers are the hot loops the no-op
        guarantee protects; if any of them ever references the telemetry
        layer, per-instruction overhead can sneak in.
        """
        import repro.gpu as gpu_package

        gpu_dir = os.path.dirname(gpu_package.__file__)
        for name in sorted(os.listdir(gpu_dir)):
            if not name.endswith(".py"):
                continue
            source = open(os.path.join(gpu_dir, name), encoding="utf-8").read()
            assert "telemetry" not in source.lower(), (
                f"repro/gpu/{name} references the telemetry layer")
