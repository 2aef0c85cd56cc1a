"""The sweep orchestrator: grids, reports, and resume-only-unfinished."""

import json
import os

import pytest

from repro.baselines import HillClimbResult
from repro.errors import SearchError
from repro.gevo import GevoConfig, SearchResult
from repro.runtime import (
    FitnessCache,
    SimulatedCrash,
    SweepSpec,
    Telemetry,
    faultpoints,
    run_sweep,
)
from repro.runtime.sweep import SweepLeg, resolve_workload, run_search
from repro.workloads import ToyWorkloadAdapter


def _spec(**overrides):
    settings = dict(archs=["P100", "V100"], workloads=["toy"], seeds=[0, 1],
                    method="gevo", population=4, generations=2)
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSpec:
    def test_cross_product_order_is_deterministic(self):
        spec = _spec(workloads=["toy"], archs=["V100", "P100"], seeds=[1, 0])
        assert [leg.leg_id for leg in spec.legs()] == [
            "gevo-toy-V100-seed1", "gevo-toy-V100-seed0",
            "gevo-toy-P100-seed1", "gevo-toy-P100-seed0",
        ]

    def test_arch_and_workload_names_are_canonicalised(self):
        spec = _spec(archs=["p100"], workloads=["adept"])
        assert spec.archs == ("P100",)
        assert spec.workloads == ("adept-v1",)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            _spec(method="annealing")

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            resolve_workload("fortran")


class TestRunSweep:
    def test_grid_runs_and_reports(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        report = run_sweep(_spec(), sweep_dir, jobs=2)
        assert len(report.rows) == 4
        assert all(row.status == "completed" for row in report.rows)
        assert all(row.baseline_runtime_ms > 0 for row in report.rows)
        # Report artifacts: one JSON record per leg plus the aggregates.
        assert sorted(os.listdir(os.path.join(sweep_dir, "legs"))) == [
            "gevo-toy-P100-seed0.json", "gevo-toy-P100-seed1.json",
            "gevo-toy-V100-seed0.json", "gevo-toy-V100-seed1.json",
        ]
        with open(os.path.join(sweep_dir, "report.json")) as handle:
            document = json.load(handle)
        assert len(document["legs"]) == 4
        assert document["totals"]["legs"] == 4
        csv_text = open(os.path.join(sweep_dir, "report.csv")).read()
        assert csv_text.startswith("workload,arch,seed,method,status,")
        assert csv_text.count("\n") == 5  # header + one row per leg
        # The default shared cache is one SQLite file in the sweep dir.
        assert os.path.exists(os.path.join(sweep_dir, "cache.sqlite"))
        # The table is keyed by (workload, arch, seed).
        assert "workload" in report.to_table() and "P100" in report.to_table()

    def test_resume_skips_finished_legs_with_zero_reevaluations(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(_spec(), sweep_dir, jobs=2)
        report = run_sweep(_spec(), sweep_dir, resume=True, jobs=2)
        assert [row.status for row in report.rows] == ["skipped"] * 4
        assert report.totals()["fresh_evaluations"] == 0

    def test_resume_restarts_only_unfinished_legs(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        first = run_sweep(_spec(), sweep_dir)
        # Simulate a crash after three legs: the fourth leg's record is
        # gone, but its (final) checkpoint and the shared cache survive.
        victim = os.path.join(sweep_dir, "legs", "gevo-toy-V100-seed1.json")
        os.unlink(victim)
        report = run_sweep(_spec(), sweep_dir, resume=True)
        statuses = {(row.arch, row.seed): row.status for row in report.rows}
        assert statuses == {("P100", 0): "skipped", ("P100", 1): "skipped",
                            ("V100", 0): "skipped", ("V100", 1): "resumed"}
        # The restarted leg replayed from its checkpoint and the warm
        # cache: nothing was re-simulated anywhere in the sweep.
        assert report.totals()["fresh_evaluations"] == 0
        redone = {(row.arch, row.seed): row for row in report.rows}[("V100", 1)]
        done_before = {(row.arch, row.seed): row for row in first.rows}[("V100", 1)]
        assert redone.evaluations == done_before.evaluations
        assert redone.speedup == done_before.speedup

    def test_interrupted_sweep_resumes_without_redoing_work(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        # Crash right after the first leg's result record lands.
        faultpoints.arm("sweep.leg.recorded")
        try:
            with pytest.raises(SimulatedCrash):
                run_sweep(_spec(), sweep_dir)
        finally:
            faultpoints.disarm()
        assert len(os.listdir(os.path.join(sweep_dir, "legs"))) == 1
        report = run_sweep(_spec(), sweep_dir, resume=True)
        statuses = [row.status for row in report.rows]
        assert statuses[0] == "skipped"
        assert statuses.count("skipped") == 1
        assert {"completed"} == set(statuses[1:])
        assert len(report.rows) == 4

    def test_fresh_run_discards_stale_leg_artifacts(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        spec = _spec(seeds=[0], archs=["P100"])
        run_sweep(spec, sweep_dir)
        stale = os.path.join(sweep_dir, "legs", "gevo-toy-P100-seed0.json")
        before = json.load(open(stale))
        # Without resume=True the grid starts over; results are rewritten
        # (same deterministic content, fresh status).
        report = run_sweep(spec, sweep_dir)
        assert report.rows[0].status == "completed"
        after = json.load(open(stale))
        assert after["speedup"] == before["speedup"]

    def test_resume_with_changed_budget_is_rejected_loudly(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(_spec(archs=["P100"], seeds=[0]), sweep_dir)
        # A finished leg under a different budget must refuse, mirroring
        # the checkpoint layer's config validation, instead of silently
        # republishing the old numbers under the new spec.
        with pytest.raises(SearchError, match="original budget"):
            run_sweep(_spec(archs=["P100"], seeds=[0], generations=6),
                      sweep_dir, resume=True)

    def test_leg_checkpoints_hold_only_their_own_cache_namespace(self, tmp_path):
        # Regression: with a shared sweep cache, each leg's checkpoint
        # used to re-serialise *every* leg's entries (O(total cache) per
        # round, snowballing across the grid); now it holds only the
        # results the leg was charged for.
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(_spec(), sweep_dir)
        checkpoints_dir = os.path.join(sweep_dir, "checkpoints")
        for name in os.listdir(checkpoints_dir):
            arch = "P100" if "P100" in name else "V100"
            with open(os.path.join(checkpoints_dir, name)) as handle:
                entries = json.load(handle)["results"]
            assert entries, name
            assert all(f"|{arch}|" in key for key in entries), name

    def test_methods_dispatch(self, tmp_path):
        for method in ("random", "hill"):
            sweep_dir = str(tmp_path / method)
            spec = _spec(method=method, archs=["P100"], seeds=[0])
            report = run_sweep(spec, sweep_dir)
            assert len(report.rows) == 1
            assert report.rows[0].method == method
            assert report.rows[0].status == "completed"


class TestRunSearch:
    @pytest.mark.parametrize("method, result_type, end_fields", [
        ("gevo", SearchResult, {"generations"}),
        ("random", SearchResult, {"generations"}),
        ("hill", HillClimbResult, {"steps", "accepted", "rejected"}),
    ])
    def test_every_method_runs_through_the_one_runner(self, method, result_type,
                                                      end_fields):
        telemetry = Telemetry(enabled=True)
        events = []
        telemetry.add_sink(events.append)
        config = GevoConfig.quick(seed=0, population_size=4, generations=2)
        result, engine = run_search(method, ToyWorkloadAdapter(elements=64), config,
                                    FitnessCache(), label=method, telemetry=telemetry)
        assert type(result) is result_type
        assert result.evaluations >= engine.evaluations > 0
        (end,) = [event.fields for event in events if event.name == "search.end"]
        assert set(end) == {"algorithm", "best_fitness", "evaluations",
                            "wall_clock_seconds"} | end_fields
        assert end["evaluations"] == result.evaluations
        assert end["wall_clock_seconds"] == result.wall_clock_seconds
