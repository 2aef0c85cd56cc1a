"""Resume-equivalence for the baselines.

An interrupted-then-resumed random-search or hill-climbing run must be
indistinguishable from the uninterrupted run -- same best individual,
same history, same evaluation count -- and must never re-simulate a
variant evaluated before the interruption (the checkpoint carries the
results the search was charged for).
"""

import pytest

from repro.baselines import HillClimber, RandomSearch
from repro.errors import SearchError
from repro.gevo import GevoConfig
from repro.runtime import EvaluationEngine, SearchCheckpoint
from repro.workloads import ToyWorkloadAdapter


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


CONFIG = dict(seed=41, population_size=6, generations=5)
HILL_STEPS = 30


def _config(**overrides):
    return GevoConfig.quick(**dict(CONFIG, **overrides))


def _history_fingerprint(history):
    return (
        history.baseline_runtime,
        [(r.generation, r.best_fitness, r.mean_fitness, r.valid_count,
          r.population_size, r.best_edit_keys, r.evaluations)
         for r in history.records],
        history.first_seen_in_best,
    )


class TestRandomSearchResume:
    def _interrupted_run(self, adapter, path, stop_at):
        """Run only the first *stop_at* sampling waves, checkpointing each."""
        RandomSearch(adapter, _config(generations=stop_at)).run(checkpoint_path=path)
        # The checkpoint was taken mid-run; patch the recorded config back
        # to the full-length run it belongs to.
        checkpoint = SearchCheckpoint.load(path)
        checkpoint.config["generations"] = CONFIG["generations"]
        checkpoint.save(path)

    def test_resumed_run_is_bitwise_identical(self, adapter, tmp_path):
        uninterrupted = RandomSearch(adapter, _config()).run()

        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        resumed = RandomSearch(adapter, _config()).run(resume_from=path)

        assert resumed.best.edit_keys() == uninterrupted.best.edit_keys()
        assert resumed.best.fitness == uninterrupted.best.fitness
        assert resumed.best.valid == uninterrupted.best.valid
        assert resumed.evaluations == uninterrupted.evaluations
        assert (_history_fingerprint(resumed.history)
                == _history_fingerprint(uninterrupted.history))

    def test_resume_re_evaluates_nothing_from_before_the_cut(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        checkpoint = SearchCheckpoint.load(path)

        engine = EvaluationEngine(adapter)
        RandomSearch(adapter, _config(), engine=engine).run(resume_from=path)
        uninterrupted = RandomSearch(adapter, _config()).run()
        # The resumed engine executed only the post-cut variants; everything
        # earlier came from the checkpoint's imported cache.
        assert engine.evaluations == uninterrupted.evaluations - len(checkpoint.results)

    def test_resume_rejects_config_mismatch(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        with pytest.raises(SearchError):
            RandomSearch(adapter, _config(seed=99)).run(resume_from=path)

    def test_resume_rejects_wrong_algorithm(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=2)
        with pytest.raises(SearchError, match="random_search"):
            HillClimber(adapter, _config()).run(resume_from=path)


class TestHillClimberResume:
    def _interrupted_run(self, adapter, path, stop_at):
        """Climb only the first *stop_at* steps, checkpointing each one."""
        HillClimber(adapter, _config()).run(steps=stop_at, checkpoint_path=path)
        checkpoint = SearchCheckpoint.load(path)
        checkpoint.state["budget"] = HILL_STEPS
        checkpoint.save(path)

    def test_resumed_climb_is_bitwise_identical(self, adapter, tmp_path):
        uninterrupted = HillClimber(adapter, _config()).run(steps=HILL_STEPS)

        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=11)
        resumed = HillClimber(adapter, _config()).run(resume_from=path)

        assert resumed.best.edit_keys() == uninterrupted.best.edit_keys()
        assert resumed.best.fitness == uninterrupted.best.fitness
        assert resumed.accepted_edits == uninterrupted.accepted_edits
        assert resumed.rejected_edits == uninterrupted.rejected_edits
        assert resumed.evaluations == uninterrupted.evaluations
        assert (_history_fingerprint(resumed.history)
                == _history_fingerprint(uninterrupted.history))

    def test_resume_re_evaluates_nothing_from_before_the_cut(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=11)
        checkpoint = SearchCheckpoint.load(path)

        engine = EvaluationEngine(adapter)
        HillClimber(adapter, _config(), engine=engine).run(resume_from=path)
        uninterrupted = HillClimber(adapter, _config()).run(steps=HILL_STEPS)
        assert engine.evaluations == uninterrupted.evaluations - len(checkpoint.results)

    def test_resume_honours_the_recorded_budget(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=11)
        resumed = HillClimber(adapter, _config()).run(resume_from=path)
        assert resumed.history.records[-1].generation == HILL_STEPS

    def test_resume_rejects_conflicting_steps(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=11)
        with pytest.raises(SearchError, match="budget"):
            HillClimber(adapter, _config()).run(steps=HILL_STEPS + 5, resume_from=path)

    def test_resume_rejects_wrong_algorithm(self, adapter, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._interrupted_run(adapter, path, stop_at=11)
        with pytest.raises(SearchError, match="hill_climber"):
            RandomSearch(adapter, _config()).run(resume_from=path)


class TestCheckpointEvery:
    def test_sparse_cadence_skips_intermediate_writes_but_keeps_the_final_one(
            self, adapter, tmp_path, monkeypatch):
        written = []
        original = RandomSearch.capture_checkpoint

        def counting(self):
            checkpoint = original(self)
            written.append(checkpoint.round)
            return checkpoint

        monkeypatch.setattr(RandomSearch, "capture_checkpoint", counting)
        path = str(tmp_path / "ckpt.json")
        RandomSearch(adapter, _config(generations=4)).run(
            checkpoint_path=path, checkpoint_every=3)
        # Waves 1-4 ran; only wave 3 hit the modulus, plus the final state.
        assert written == [3, 4]
        assert SearchCheckpoint.load(path).round == 4

    def test_short_hill_climb_still_leaves_a_resumable_checkpoint(self, adapter, tmp_path):
        # budget < checkpoint_every: the periodic modulus never fires, but
        # the end-of-run write still makes the command re-issuable.
        path = str(tmp_path / "ckpt.json")
        HillClimber(adapter, _config()).run(steps=5, checkpoint_path=path,
                                            checkpoint_every=50)
        checkpoint = SearchCheckpoint.load(path)
        assert checkpoint.round == 5
        engine = EvaluationEngine(adapter)
        HillClimber(adapter, _config(), engine=engine).run(resume_from=path)
        assert engine.evaluations == 0
