"""Crash-exact resume: kill the run at every injection point, resume, compare.

The battery enumerates every ``(kill point, occurrence)`` pair an
uninterrupted reference run actually reaches (via
:func:`repro.runtime.faultpoints.observe`), then for each pair crashes a
fresh run at exactly that point with :class:`SimulatedCrash`, discards
the whole in-memory object graph -- as process death would -- and
resumes from the on-disk checkpoint + cache with fresh objects.  The
resumed run must reproduce the reference bit-for-bit: best individual,
evaluation count, and full serialized history.

The persistent SQLite cache tier is deliberately in play: the original
divergence was the disk cache flushing mid-round *before* the round's
checkpoint, so a resumed replay was served stale hits and undercounted
evaluations.  Every scenario here runs against a disk cache so that
window stays covered.
"""

import json
import os

import pytest

from repro.baselines import HillClimber, RandomSearch
from repro.gevo import GevoConfig, GevoSearch
from repro.runtime import (
    EvaluationEngine,
    FitnessCache,
    SearchCheckpoint,
    SimulatedCrash,
    SweepSpec,
    Telemetry,
    run_sweep,
    serialize_history,
)
from repro.runtime import faultpoints
from repro.ir import reset_uid_namespace
from repro.workloads import ToyWorkloadAdapter

CONFIG = dict(seed=7, population_size=4, generations=3)
HILL_STEPS = 6  # keep the hill battery small; the budget is per-step


@pytest.fixture(autouse=True)
def _disarmed():
    """Never leak an armed kill point into another test."""
    faultpoints.disarm()
    yield
    faultpoints.disarm()


def _make_search(algorithm, engine):
    adapter = ToyWorkloadAdapter(elements=64)
    config = GevoConfig.quick(**CONFIG)
    if algorithm == "gevo":
        return GevoSearch(adapter, config, engine=engine)
    if algorithm == "random_search":
        return RandomSearch(adapter, config, engine=engine)
    return HillClimber(adapter, config, engine=engine)


def _run(algorithm, workdir, *, resume=False, telemetry=None):
    """One full run with a fresh object graph against *workdir*'s state.

    Each call simulates a freshly-started process: the instruction uid
    namespace restarts at 1 (as it would after a real SIGKILL +
    relaunch), so checkpointed edits address the rebuilt modules exactly.
    """
    reset_uid_namespace()
    cache = FitnessCache(os.path.join(workdir, "cache.sqlite"))
    engine = EvaluationEngine(ToyWorkloadAdapter(elements=64), cache=cache,
                              telemetry=telemetry)
    search = _make_search(algorithm, engine)
    checkpoint_path = os.path.join(workdir, "ckpt.json")
    resume_from = checkpoint_path if resume and os.path.exists(
        checkpoint_path) else None
    kwargs = dict(checkpoint_path=checkpoint_path, checkpoint_every=1,
                  resume_from=resume_from)
    try:
        if algorithm == "hill_climber":
            result = search.run(HILL_STEPS, **kwargs)
        else:
            result = search.run(**kwargs)
    except SimulatedCrash:
        # A crash: walk away without closing, exactly as SIGKILL would --
        # no final cache flush, no engine teardown.
        raise
    engine.close()
    return result, engine


def _summary(result):
    best = result.best
    return {
        "best": None if best is None else
                (best.edit_keys(), best.fitness, best.valid),
        "evaluations": result.evaluations,
        "history": serialize_history(result.history),
    }


def _reference(algorithm, tmp_path):
    """Uninterrupted run; returns its summary and every reachable kill pair."""
    workdir = str(tmp_path / "reference")
    os.makedirs(workdir)
    faultpoints.observe()
    try:
        result, _ = _run(algorithm, workdir)
    finally:
        hits = faultpoints.hit_counts()
        faultpoints.disarm()
    pairs = [(point, occurrence)
             for point, count in sorted(hits.items())
             for occurrence in range(1, count + 1)]
    assert pairs, "the reference run reached no kill points"
    return _summary(result), pairs


class TestKillPointBattery:
    @pytest.mark.parametrize("algorithm",
                             ["gevo", "random_search", "hill_climber"])
    def test_resume_is_exact_from_every_kill_point(self, algorithm, tmp_path):
        reference, pairs = _reference(algorithm, tmp_path)
        # Every loop phase must actually be instrumented for this search.
        points = {point for point, _ in pairs}
        assert {"search.round.spawned", "search.round.evaluated",
                "search.round.scored", "search.round.checkpointed",
                "search.finished", "checkpoint.save",
                "engine.batch.cached"} <= points

        for point, occurrence in pairs:
            workdir = str(tmp_path / f"{point}.{occurrence}")
            os.makedirs(workdir)
            faultpoints.arm(point, occurrence)
            try:
                with pytest.raises(SimulatedCrash):
                    _run(algorithm, workdir)
            finally:
                faultpoints.disarm()
            result, engine = _run(algorithm, workdir, resume=True)
            assert _summary(result) == reference, (
                f"{algorithm} resume diverged after a crash at "
                f"{point}:{occurrence}")


class TestCheckpointBytes:
    @pytest.mark.parametrize("algorithm",
                             ["gevo", "random_search", "hill_climber"])
    def test_resumed_final_checkpoint_is_byte_identical(self, algorithm, tmp_path):
        """A resume imports the results in another order than the run
        inserted them; written in key order, they come out as the same
        bytes the uninterrupted run wrote."""
        written = {}
        for name, crash in (("reference", False), ("resumed", True)):
            workdir = str(tmp_path / name)
            os.makedirs(workdir)
            if crash:
                faultpoints.arm("search.round.scored", 2)
                try:
                    with pytest.raises(SimulatedCrash):
                        _run(algorithm, workdir)
                finally:
                    faultpoints.disarm()
            _run(algorithm, workdir, resume=crash)
            with open(os.path.join(workdir, "ckpt.json"), "rb") as handle:
                written[name] = handle.read()
        assert written["resumed"] == written["reference"]


class TestZeroReEvaluation:
    def test_resume_after_final_round_replays_nothing(self, tmp_path):
        """Crash after the last checkpoint: resume touches zero simulations.

        The resumed process is handed a complete round-boundary
        checkpoint, so every lookup -- the baseline included -- must be
        a cache hit, observable as ``cache.misses == 0`` in telemetry
        and zero executed evaluations on the engine.
        """
        workdir = str(tmp_path / "run")
        os.makedirs(workdir)
        reference, pairs = _reference("gevo", tmp_path)

        faultpoints.arm("search.finished")  # fires after the final save
        try:
            with pytest.raises(SimulatedCrash):
                _run("gevo", workdir)
        finally:
            faultpoints.disarm()

        telemetry = Telemetry(enabled=True)
        result, engine = _run("gevo", workdir, resume=True,
                              telemetry=telemetry)
        assert _summary(result) == reference
        assert telemetry.counters["cache.misses"] == 0
        assert telemetry.counters["cache.hits"] > 0
        assert engine.evaluations == 0

    def test_resume_emits_replay_event(self, tmp_path):
        workdir = str(tmp_path / "run")
        os.makedirs(workdir)
        faultpoints.arm("search.round.scored", occurrence=2)
        try:
            with pytest.raises(SimulatedCrash):
                _run("gevo", workdir)
        finally:
            faultpoints.disarm()

        resumed_from = SearchCheckpoint.load(os.path.join(workdir, "ckpt.json"))
        telemetry = Telemetry(enabled=True)
        events = []
        telemetry.add_sink(events.append)
        _run("gevo", workdir, resume=True, telemetry=telemetry)
        replays = [e for e in events if e.name == "search.resume_replay"]
        assert len(replays) == 1
        fields = replays[0].fields
        assert fields["algorithm"] == "gevo"
        assert fields["round"] >= 1
        assert fields["evaluations"] > 0
        assert fields["evaluations"] == len(resumed_from.results)
        assert fields["path"] == os.path.join(workdir, "ckpt.json")


class TestSharedCacheAccounting:
    """Resume accounting under a sweep-style *shared* cache.

    Cache keys are namespaced by workload+arch, not seed, so the shared
    cache holds sibling legs' results.  Charging those on resume (say,
    by rebuilding the charged set from the cache instead of from the
    checkpoint's ``results``) would leave every post-resume submission of
    an edit set a sibling evaluated first uncounted -- the resumed leg
    would report fewer evaluations than the uninterrupted one.
    """

    SEEDS = (7, 8)

    def _run_seed(self, workdir, seed, *, resume=False):
        reset_uid_namespace()
        cache = FitnessCache(os.path.join(workdir, "shared.sqlite"))
        engine = EvaluationEngine(ToyWorkloadAdapter(elements=64),
                                  cache=cache)
        # population_size=6 (not the battery's 4): the larger population
        # makes the two seeds' edit-set timelines overlap *after* the
        # crash cut, which is the window the sibling-contamination bug
        # undercounts -- with 4 the runs happen not to overlap there and
        # the test could not fail.
        config = GevoConfig.quick(seed=seed, population_size=6,
                                  generations=5)
        search = GevoSearch(ToyWorkloadAdapter(elements=64), config,
                            engine=engine)
        checkpoint_path = os.path.join(workdir, f"ckpt-{seed}.json")
        resume_from = checkpoint_path if resume else None
        result = search.run(checkpoint_path=checkpoint_path,
                            checkpoint_every=1, resume_from=resume_from)
        engine.close()
        return result

    def test_resumed_count_ignores_sibling_cache_entries(self, tmp_path):
        first, second = self.SEEDS
        reference_dir = str(tmp_path / "reference")
        os.makedirs(reference_dir)
        self._run_seed(reference_dir, first)
        reference = _summary(self._run_seed(reference_dir, second))

        crashed_dir = str(tmp_path / "crashed")
        os.makedirs(crashed_dir)
        self._run_seed(crashed_dir, first)
        # Crash the second search after its first checkpoint exists, so
        # the resume really goes through the checkpointed-results path
        # (a crash before any checkpoint falls back to a fresh start).
        faultpoints.arm("search.round.scored", occurrence=2)
        try:
            with pytest.raises(SimulatedCrash):
                self._run_seed(crashed_dir, second)
        finally:
            faultpoints.disarm()
        resumed = _summary(self._run_seed(crashed_dir, second, resume=True))
        assert resumed == reference

    def test_checkpoint_holds_only_own_results(self, tmp_path, monkeypatch):
        """A later search's checkpoint under the shared cache holds
        exactly the edit sets it submitted, through a crash and resume,
        none of its sibling's."""
        submitted = set()
        evaluate_many = EvaluationEngine.evaluate_many

        def recording(engine, edit_sets):
            submitted.update(engine.cache_key(edits).to_string()
                             for edits in edit_sets)
            return evaluate_many(engine, edit_sets)

        first, second = self.SEEDS
        workdir = str(tmp_path / "run")
        os.makedirs(workdir)
        self._run_seed(workdir, first)
        monkeypatch.setattr(EvaluationEngine, "evaluate_many", recording)
        faultpoints.arm("search.round.scored", occurrence=2)
        try:
            with pytest.raises(SimulatedCrash):
                self._run_seed(workdir, second)
        finally:
            faultpoints.disarm()
        result = self._run_seed(workdir, second, resume=True)

        checkpoint = SearchCheckpoint.load(
            os.path.join(workdir, f"ckpt-{second}.json"))
        assert set(checkpoint.results) == submitted
        assert len(checkpoint.results) == result.evaluations
        shared = FitnessCache(os.path.join(workdir, "shared.sqlite"))
        assert len(shared) > len(submitted), (
            "expected the shared cache to hold the sibling's entries too")
        shared.close()


def _sweep_spec():
    return SweepSpec(archs=["P100"], workloads=["toy"], seeds=[0, 1],
                     method="gevo", population=4, generations=2)


def _sweep_rows(report):
    """Report rows minus the fields that legitimately differ on resume."""
    return [(row.workload, row.arch, row.seed, row.method, row.speedup,
             row.best_runtime_ms, row.baseline_runtime_ms, row.best_edits,
             row.evaluations) for row in report.rows]


def _leg_checkpoints(sweep_dir):
    """Every leg's final checkpoint document, keyed by leg id.

    The checkpoint holds the leg's full timeline -- population, history,
    RNG stream, charged results -- so document equality is
    the strongest bit-for-bit statement available per leg (report rows
    alone are aggregates and can collide).
    """
    checkpoints_dir = os.path.join(sweep_dir, "checkpoints")
    documents = {}
    for name in sorted(os.listdir(checkpoints_dir)):
        with open(os.path.join(checkpoints_dir, name)) as handle:
            documents[name] = json.load(handle)
    return documents


class TestSweepBattery:
    def test_sweep_resume_is_exact_from_every_kill_point(self, tmp_path):
        ref_dir = str(tmp_path / "reference")
        faultpoints.observe()
        try:
            reset_uid_namespace()
            reference = _sweep_rows(run_sweep(_sweep_spec(), ref_dir))
            reference_checkpoints = _leg_checkpoints(ref_dir)
        finally:
            hits = faultpoints.hit_counts()
            faultpoints.disarm()
        assert {"sweep.leg.completed", "sweep.leg.recorded"} <= set(hits)
        # Every point at its first, middle and last occurrence: the first
        # lands in the first leg, the middle in a *later* leg's early
        # rounds (the window where a resumed invocation has skipped
        # finished legs -- which once shifted the uid namespace under the
        # resumed leg's checkpoint), and the last at the end of the grid.
        # The full cross product of search-level pairs is already covered
        # by the per-search battery above.
        pairs = sorted({(point, occurrence)
                        for point, count in hits.items()
                        for occurrence in {1, count // 2 + 1, count}})

        for point, occurrence in pairs:
            sweep_dir = str(tmp_path / f"{point}.{occurrence}")
            faultpoints.arm(point, occurrence)
            try:
                reset_uid_namespace()
                with pytest.raises(SimulatedCrash):
                    run_sweep(_sweep_spec(), sweep_dir)
            finally:
                faultpoints.disarm()
            reset_uid_namespace()
            report = run_sweep(_sweep_spec(), sweep_dir, resume=True)
            assert _sweep_rows(report) == reference, (
                f"sweep resume diverged after a crash at "
                f"{point}:{occurrence}")
            assert _leg_checkpoints(sweep_dir) == reference_checkpoints, (
                f"a leg's checkpointed timeline diverged after a crash at "
                f"{point}:{occurrence}")
