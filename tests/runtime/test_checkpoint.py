"""Checkpoint/resume: a resumed search reproduces the uninterrupted run."""

import json

import pytest

from repro.baselines import HillClimber, RandomSearch
from repro.errors import SearchError
from repro.gevo import GevoConfig, GevoSearch
from repro.runtime import (
    CacheKey,
    EvaluationEngine,
    FitnessCache,
    SearchCheckpoint,
    Telemetry,
    result_to_dict,
)
from repro.workloads import ToyWorkloadAdapter


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


CONFIG = dict(seed=33, population_size=8, generations=6)

#: Every field a format-3 checkpoint must carry besides its version.
REQUIRED_FIELDS = ["algorithm", "workload_id", "arch_name", "config", "rng_state",
                   "history", "round", "best", "state", "results"]


class TestCheckpointRoundTrip:
    def test_checkpoint_file_round_trips(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        config = GevoConfig.quick(**CONFIG)
        GevoSearch(adapter, config).run(checkpoint_path=path)
        checkpoint = SearchCheckpoint.load(path)
        assert checkpoint.round == config.generations
        assert checkpoint.restore_config() == config
        assert len(checkpoint.restore_population()) == config.population_size
        history = checkpoint.restore_history()
        assert history.generations() == config.generations
        # Edit keys survive the JSON round trip as tuples.
        assert history.first_seen_in_best
        for key in history.first_seen_in_best:
            assert isinstance(key, tuple)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(SearchError):
            SearchCheckpoint.load(str(path))

    def test_corrupt_checkpoint_raises_search_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{broken")
        with pytest.raises(SearchError, match="not valid JSON"):
            SearchCheckpoint.load(str(path))

    def test_torn_checkpoint_is_set_aside_for_forensics(self, tmp_path):
        # A torn file must not wedge the checkpoint path: load() renames
        # it to <path>.corrupt so a retried run starts fresh while the
        # damaged bytes stay on disk for inspection.
        path = tmp_path / "ckpt.json"
        path.write_text("{broken")
        with pytest.raises(SearchError, match="set aside"):
            SearchCheckpoint.load(str(path))
        assert not path.exists()
        corpse = tmp_path / "ckpt.json.corrupt"
        assert corpse.read_text() == "{broken"


class TestResume:
    def _interrupted_run(self, adapter, path, stop_at):
        """Run only the first *stop_at* generations, checkpointing each one."""
        config = GevoConfig.quick(**CONFIG).with_(generations=stop_at)
        GevoSearch(adapter, config).run(checkpoint_path=path)
        # The checkpoint was taken mid-search; patch the recorded config back
        # to the full-length run it belongs to.
        checkpoint = SearchCheckpoint.load(path)
        checkpoint.config["generations"] = CONFIG["generations"]
        checkpoint.save(path)

    def test_resumed_run_reproduces_uninterrupted_run(self, adapter, tmp_path):
        config = GevoConfig.quick(**CONFIG)
        uninterrupted = GevoSearch(adapter, config).run()

        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=3)
        resumed = GevoSearch(adapter, config).run(resume_from=path)

        assert (resumed.history.best_fitness_series()
                == uninterrupted.history.best_fitness_series())
        assert resumed.best.edit_keys() == uninterrupted.best.edit_keys()
        assert resumed.best.fitness == uninterrupted.best.fitness
        assert resumed.evaluations == uninterrupted.evaluations
        assert (resumed.history.first_seen_in_best
                == uninterrupted.history.first_seen_in_best)

    def test_resume_restores_cache_so_nothing_reruns_before_the_cut(
            self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=3)

        engine = EvaluationEngine(adapter)
        config = GevoConfig.quick(**CONFIG)
        GevoSearch(adapter, config, engine=engine).run(resume_from=path)
        checkpoint = SearchCheckpoint.load(path)
        # Everything evaluated before the interruption came from the imported
        # cache: the resumed engine only executed genuinely new variants.
        uninterrupted = GevoSearch(adapter, config).run()
        assert engine.evaluations == uninterrupted.evaluations - len(checkpoint.results)

    def test_resume_rejects_config_mismatch(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        other = GevoConfig.quick(**dict(CONFIG, seed=99))
        with pytest.raises(SearchError):
            GevoSearch(adapter, other).run(resume_from=path)

    def test_config_mismatch_error_names_the_differing_field(
            self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        other = GevoConfig.quick(**dict(CONFIG, seed=99))
        with pytest.raises(SearchError,
                           match=r"seed: checkpoint has 33, requested 99"):
            GevoSearch(adapter, other).run(resume_from=path)

    def test_resume_rejects_architecture_mismatch(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        checkpoint = SearchCheckpoint.load(path)
        checkpoint.arch_name = "V100"
        checkpoint.save(path)
        config = GevoConfig.quick(**CONFIG)
        with pytest.raises(SearchError, match="architecture 'V100'"):
            GevoSearch(adapter, config).run(resume_from=path)

    @pytest.mark.parametrize("field", REQUIRED_FIELDS)
    def test_checkpoint_without_field_is_rejected(self, adapter, tmp_path,
                                                  field):
        # A checkpoint missing a field cannot be resumed exactly (a
        # missing ``results`` would miscount evaluations), so it fails
        # cleanly instead of resuming a different search.
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=3)
        document = json.loads(open(path).read())
        document.pop(field)
        open(path, "w").write(json.dumps(document))
        config = GevoConfig.quick(**CONFIG)
        with pytest.raises(SearchError,
                           match=f"no '{field}' field.*start a fresh search"):
            GevoSearch(adapter, config).run(resume_from=path)

    def test_format_2_checkpoint_is_rejected(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        document = json.loads(open(path).read())
        document["version"] = 2
        open(path, "w").write(json.dumps(document))
        config = GevoConfig.quick(**CONFIG)
        with pytest.raises(SearchError,
                           match="version 2 is not supported.*start a fresh search"):
            GevoSearch(adapter, config).run(resume_from=path)

    def test_resume_rejects_workload_mismatch(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        checkpoint = SearchCheckpoint.load(path)
        checkpoint.workload_id = "another workload"
        checkpoint.save(path)
        config = GevoConfig.quick(**CONFIG)
        with pytest.raises(SearchError):
            GevoSearch(adapter, config).run(resume_from=path)

    def test_resume_after_stagnation_stop_adds_nothing(self, adapter, tmp_path):
        # Regression: the stagnation limit used to be checked only at the
        # *end* of each generation, so resuming a stagnation-terminated
        # run evaluated one extra generation past the stop.
        config = GevoConfig.quick(seed=7, population_size=4,
                                  generations=20).with_(stagnation_limit=2)
        path = str(tmp_path / "ckpt.json")
        uninterrupted = GevoSearch(adapter, config).run(checkpoint_path=path)
        assert uninterrupted.history.generations() < config.generations  # it did stop early

        engine = EvaluationEngine(adapter)
        resumed = GevoSearch(adapter, config, engine=engine).run(resume_from=path)
        assert engine.evaluations == 0
        assert resumed.evaluations == uninterrupted.evaluations
        assert (resumed.history.best_fitness_series()
                == uninterrupted.history.best_fitness_series())

    def test_warm_persistent_cache_means_zero_evaluations_on_rerun(
            self, adapter, tmp_path):
        cache_path = str(tmp_path / "fitness.json")
        config = GevoConfig.quick(**CONFIG)

        cold = EvaluationEngine(adapter, cache=FitnessCache(cache_path))
        GevoSearch(adapter, config, engine=cold).run()
        assert cold.evaluations > 0
        cold.close()

        warm = EvaluationEngine(adapter, cache=FitnessCache(cache_path))
        GevoSearch(adapter, config, engine=warm).run()
        assert warm.evaluations == 0
        assert warm.cache.hits > 0


class RecordingEngine(EvaluationEngine):
    """An engine that records the key of every edit list submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = set()

    def evaluate_many(self, edit_sets):
        self.submitted.update(self.cache_key(edits).to_string() for edits in edit_sets)
        return super().evaluate_many(edit_sets)


class TestFormat3:
    """A checkpoint records each fact once: ``results`` holds exactly the
    edit sets the search submitted, and nothing else repeats a field."""

    STATE_KEYS = {GevoSearch: {"stagnation", "population"},
                  RandomSearch: set(),
                  HillClimber: {"budget", "accepted", "rejected"}}

    @pytest.mark.parametrize("search_class", [GevoSearch, RandomSearch, HillClimber])
    def test_results_are_exactly_the_submitted_edit_sets(self, adapter, tmp_path,
                                                        search_class):
        path = str(tmp_path / "ckpt.json")
        engine = RecordingEngine(adapter)
        config = GevoConfig.quick(**dict(CONFIG, generations=3))
        result = search_class(adapter, config, engine=engine).run(checkpoint_path=path)
        with open(path) as handle:
            document = json.load(handle)

        assert document["version"] == 3
        assert set(document) == set(REQUIRED_FIELDS) | {"version"}
        assert set(document["state"]) == self.STATE_KEYS[search_class]
        results = document["results"]
        assert list(results) == sorted(results)
        assert set(results) == engine.submitted
        assert len(results) == result.evaluations
        for key, payload in results.items():
            assert payload == result_to_dict(engine.cache.peek(CacheKey.from_string(key)))
        checkpoint = SearchCheckpoint.load(path)
        assert checkpoint.round == result.history.records[-1].generation
        assert checkpoint.restore_best().edit_keys() == result.best.edit_keys()

    @pytest.mark.parametrize("search_class,field", [
        (search_class, field) for search_class, keys in STATE_KEYS.items()
        for field in sorted(keys)])
    def test_state_without_field_is_rejected(self, adapter, tmp_path,
                                             search_class, field):
        # A default would resume a different search (a hill climb with a
        # budget of 0 steps), so a missing state field fails cleanly, as
        # a missing top-level field does.
        path = str(tmp_path / "ckpt.json")
        config = GevoConfig.quick(**dict(CONFIG, generations=3))
        search_class(adapter, config).run(checkpoint_path=path)
        document = json.loads(open(path).read())
        del document["state"][field]
        open(path, "w").write(json.dumps(document))
        with pytest.raises(SearchError,
                           match=f"state has no '{field}' field.*start a fresh search"):
            search_class(adapter, config).run(resume_from=path)

    @pytest.mark.parametrize("search_class", [GevoSearch, RandomSearch, HillClimber])
    def test_history_counts_the_charged_results(self, adapter, tmp_path,
                                                search_class):
        # A history record's ``evaluations`` is the run's evaluation
        # count after that round, in every search.
        path = str(tmp_path / "ckpt.json")
        events = []
        telemetry = Telemetry(enabled=True)
        telemetry.add_sink(events.append)
        engine = EvaluationEngine(adapter, telemetry=telemetry)
        config = GevoConfig.quick(**dict(CONFIG, generations=3))
        result = search_class(adapter, config, engine=engine).run(checkpoint_path=path)
        with open(path) as handle:
            results = json.load(handle)["results"]
        assert result.history.records[-1].evaluations == len(results)
        assert result.evaluations == len(results)
        generations = [event.fields["evaluations"] for event in events
                       if event.name == "search.generation"]
        if search_class is not HillClimber:  # it emits count-free search.step
            assert generations[-1] == len(results)
