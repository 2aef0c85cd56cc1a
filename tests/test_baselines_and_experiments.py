"""Tests for the search baselines and the experiment registry."""

import pytest

from repro.baselines import HillClimber, RandomSearch
from repro.experiments import ExperimentResult, available_experiments, get_experiment
from repro.gevo import GevoConfig
from repro.runtime import SearchCheckpoint, faultpoints
from repro.workloads import ToyWorkloadAdapter


@pytest.fixture(scope="module")
def toy_adapter():
    return ToyWorkloadAdapter(elements=128)


class TestBaselines:
    def test_random_search_finds_something_or_stays_neutral(self, toy_adapter):
        config = GevoConfig.quick(seed=31, population_size=8, generations=4)
        result = RandomSearch(toy_adapter, config).run()
        assert result.evaluations > 0
        assert result.speedup >= 1.0 or result.best is None

    def test_hill_climber_improves_toy_kernel(self, toy_adapter):
        config = GevoConfig.quick(seed=32, population_size=8, generations=4)
        result = HillClimber(toy_adapter, config).run(steps=40)
        assert result.best.valid
        assert result.speedup > 1.0
        assert result.accepted_edits >= 1
        assert result.accepted_edits + result.rejected_edits <= 40

    def test_hill_climber_history_is_monotone(self, toy_adapter):
        config = GevoConfig.quick(seed=33, population_size=8, generations=4)
        result = HillClimber(toy_adapter, config).run(steps=25)
        series = [value for value in result.history.best_fitness_series() if value is not None]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(series, series[1:]))

    def test_hill_step_without_an_edit_spends_budget_but_is_no_round(
            self, toy_adapter, monkeypatch, tmp_path):
        config = GevoConfig.quick(seed=34, population_size=8, generations=4)
        climber = HillClimber(toy_adapter, config)
        draw = climber.generator.random_edit
        steps = []

        def every_third_step_has_no_edit():
            steps.append(len(steps) + 1)
            return None if steps[-1] % 3 == 0 else draw()

        monkeypatch.setattr(climber.generator, "random_edit",
                            every_third_step_has_no_edit)
        path = str(tmp_path / "ckpt.json")
        faultpoints.observe()
        try:
            result = climber.run(steps=9, checkpoint_path=path, checkpoint_every=3)
            hits = faultpoints.hit_counts()
        finally:
            faultpoints.disarm()
        assert steps == list(range(1, 10))
        assert [record.generation for record in result.history.records] == [1, 2, 4, 5, 7, 8]
        assert result.accepted_edits + result.rejected_edits == 6
        assert hits["search.round.spawned"] == hits["search.round.scored"] == 6
        # Steps 3, 6 and 9 were no rounds, so the every-3 cadence never
        # fired; only the final checkpoint, at the end of the budget.
        assert "search.round.checkpointed" not in hits
        assert SearchCheckpoint.load(path).round == 9


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        expected = {"table1", "figure4", "figure5", "figure6", "figure7", "figure8",
                    "ballot_sync", "boundary", "generality"}
        assert expected <= set(available_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_table1_rows(self):
        result = get_experiment("table1")()
        assert [row["GPU"] for row in result.rows] == ["P100", "1080Ti", "V100"]
        assert "Table I" in result.to_table()

    def test_experiment_result_table_rendering(self):
        result = ExperimentResult("demo", "demo experiment")
        result.add_row(name="a", value=1.23456)
        result.add_row(name="bb", other="x")
        text = result.to_table()
        assert "demo experiment" in text
        assert "1.235" in text
        assert result.column_names() == ["name", "value", "other"]

    def test_figure5_shape(self):
        result = get_experiment("figure5")(architectures=["P100"])
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["baseline_valid"] and row["gevo_valid"]
        assert row["speedup"] > 1.05
