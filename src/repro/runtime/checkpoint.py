"""Checkpoint/resume for long-running searches.

A paper-scale GEVO run is days of wall clock (population 256 x 300
generations x a full test-suite evaluation per variant); with the
simulated GPU the scaled-down runs are still the slowest thing in the
repo -- and the random-search and hill-climbing baselines burn the same
evaluation budget.  A :class:`SearchCheckpoint` records, each fact
once, everything *any* of the search loops needs to continue exactly
where it stopped:

* which algorithm wrote it (``algorithm``), so a hill-climber checkpoint
  can never silently resume a GEVO run, and the workload, architecture
  and configuration it ran under (mismatches are refused on resume);
* the Mersenne-Twister state of the search RNG and the recorded
  :class:`~repro.gevo.history.SearchHistory` (which holds the baseline
  runtime);
* the round counter and the best individual (for the hill climber, its
  current one);
* ``results`` -- the fitness of exactly the edit sets this search has
  been charged for, the unmodified program included, keyed by cache key
  in key order.  Its size is the search's evaluation count, a resume
  rebuilds the charged set from its keys, and importing it into the
  cache means no variant evaluated before the interruption is ever
  re-simulated;
* an algorithm-specific ``state`` payload -- GEVO stores its population
  and stagnation counter there, the hill climber its budget and
  accepted/rejected tallies; random search needs none.

Every search subclasses :class:`CheckpointableSearch`, whose one
``run()`` and one round loop own the whole protocol -- fresh start or
resume (validated by :func:`resolve_checkpoint`, which funnels all the
algorithm/workload/arch/config mismatch checks through one place), the
evaluation of each round, the kill points of every round, the
checkpoint cadence, the final checkpoint and the one
:class:`~repro.gevo.history.SearchResult` -- while the search supplies
only its rounds, its ``state`` payload and its event fields.

Checkpoints are plain JSON; ``inf`` fitness values round-trip through
JSON's ``Infinity`` literal.  Resuming with the same seed reproduces the
uninterrupted run bit-for-bit, down to the bytes of its final
checkpoint (pinned by ``tests/runtime/test_checkpoint.py`` for GEVO,
``tests/runtime/test_baseline_resume.py`` for the baselines and
``tests/runtime/test_crash_resume.py`` at every kill point), because
the RNG state, working individuals, history and charged results are all
restored verbatim.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SearchError
from ..gevo.config import GevoConfig
from ..gevo.edits import edit_from_dict
from ..gevo.fitness import FitnessResult
from ..gevo.genome import Individual
from ..gevo.history import GenerationRecord, SearchHistory, SearchResult
from ..gevo.mutation import EditGenerator
from .faultpoints import kill_point

#: Version 2 added the ``algorithm`` discriminator and the per-algorithm
#: ``state`` payload; version 3 records each fact once: one ``results``
#: map replaced ``evaluations``, ``ledger_keys`` and the cache snapshot,
#: and the round counter and best individual became top-level fields.
CHECKPOINT_FORMAT_VERSION = 3


# -- primitive (de)serialisation helpers ---------------------------------------------

def _to_jsonable(value):
    """Tuples survive JSON as lists; convert eagerly for clarity."""
    if isinstance(value, tuple):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, list):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _to_jsonable(item) for key, item in value.items()}
    return value


def _to_tuple(value):
    """Recursively convert JSON lists back to the tuples edit keys use."""
    if isinstance(value, list):
        return tuple(_to_tuple(item) for item in value)
    return value


def serialize_individual(individual: Individual) -> Dict[str, object]:
    return {
        "edits": [edit.to_dict() for edit in individual.edits],
        "fitness": individual.fitness,
        "valid": individual.valid,
    }


def deserialize_individual(data: Dict[str, object]) -> Individual:
    individual = Individual(edits=[edit_from_dict(edit) for edit in data["edits"]])
    individual.fitness = data.get("fitness")
    individual.valid = data.get("valid")
    return individual


def serialize_history(history: SearchHistory) -> Dict[str, object]:
    return {
        "baseline_runtime": history.baseline_runtime,
        "records": [
            {
                "generation": record.generation,
                "best_fitness": record.best_fitness,
                "mean_fitness": record.mean_fitness,
                "valid_count": record.valid_count,
                "population_size": record.population_size,
                "best_edit_keys": _to_jsonable(record.best_edit_keys),
                "evaluations": record.evaluations,
            }
            for record in history.records
        ],
    }


def deserialize_history(data: Dict[str, object]) -> SearchHistory:
    history = SearchHistory(baseline_runtime=data["baseline_runtime"])
    for record in data.get("records", []):
        history.records.append(GenerationRecord(
            generation=record["generation"],
            best_fitness=record["best_fitness"],
            mean_fitness=record["mean_fitness"],
            valid_count=record["valid_count"],
            population_size=record["population_size"],
            best_edit_keys=_to_tuple(record.get("best_edit_keys", [])),
            evaluations=record.get("evaluations", 0),
        ))
    return history


def serialize_rng_state(state) -> List[object]:
    return _to_jsonable(state)


def deserialize_rng_state(data) -> Tuple:
    return _to_tuple(data)


# -- the checkpoint ------------------------------------------------------------------

@dataclass
class SearchCheckpoint:
    """Complete restartable state of one interrupted search run."""

    #: Which search loop wrote this checkpoint ("gevo", "random_search",
    #: "hill_climber", ...); resume refuses a mismatched algorithm.
    algorithm: str
    workload_id: str
    #: Architecture the run evaluated on; resume refuses a mismatch.
    arch_name: str
    config: Dict[str, object]
    rng_state: List[object]
    history: Dict[str, object]
    #: Rounds completed (generations, sampling waves or climb steps).
    round: int
    #: The best individual so far (the hill climber's current one), if any.
    best: Optional[Dict[str, object]]
    #: Algorithm-specific payload (population, counters ...); the owning
    #: search defines its shape.
    state: Dict[str, object]
    #: Cache key -> fitness payload of exactly the edit sets this search
    #: was charged for, in key order.  Its size is the evaluation count.
    results: Dict[str, Dict[str, object]]
    version: int = CHECKPOINT_FORMAT_VERSION

    # -- restoration -------------------------------------------------------------------
    def restore_config(self) -> GevoConfig:
        return GevoConfig(**dict(self.config))

    def restore_history(self) -> SearchHistory:
        return deserialize_history(self.history)

    def restore_rng_state(self) -> Tuple:
        return deserialize_rng_state(self.rng_state)

    def restore_best(self) -> Optional[Individual]:
        return deserialize_individual(self.best) if self.best is not None else None

    def restore_population(self) -> List[Individual]:
        return [deserialize_individual(item)
                for item in self.state_field("population")]

    def state_field(self, name: str):
        """One field of the search's ``state`` payload; a missing one
        fails like a missing top-level field."""
        if name not in self.state:
            raise SearchError(
                f"checkpoint state has no {name!r} field; start a fresh search")
        return self.state[name]

    # -- persistence -------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SearchCheckpoint":
        if data.get("version") != CHECKPOINT_FORMAT_VERSION:
            raise SearchError(
                f"checkpoint format version {data.get('version')!r} is not supported "
                f"(expected {CHECKPOINT_FORMAT_VERSION}); start a fresh search")
        fields = [f.name for f in dataclasses.fields(cls)]
        for name in fields:
            if name not in data:
                raise SearchError(
                    f"checkpoint has no {name!r} field; start a fresh search")
        return cls(**{name: data[name] for name in fields})

    def save(self, path: str) -> None:
        """Durably and atomically write the checkpoint to *path*.

        Beyond the tmp-file-plus-rename every writer in the runtime uses,
        a checkpoint fsyncs the tmp file before the rename and the
        containing directory after it: checkpoints are the one file class
        whose loss is *irreplaceable* (hours of search), so they must
        survive power loss, not just process death.
        """
        from .cache import atomic_write_json

        kill_point("checkpoint.save")
        atomic_write_json(path, self.to_dict(), durable=True)

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        """Load a checkpoint; corruption raises :class:`SearchError`.

        Unlike the fitness cache, a checkpoint is irreplaceable search
        state -- a damaged file must surface loudly, not be silently
        treated as empty.  A torn or truncated file (unparseable JSON)
        is set aside as ``<path>.corrupt`` -- the same convention the
        SQLite cache tier uses -- so a retried ``--resume`` against the
        same path starts fresh instead of tripping over the wreck
        forever, while the damaged bytes stay on disk for forensics.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError as exc:
            corrupt_path = path + ".corrupt"
            try:
                os.replace(path, corrupt_path)
                aside = f"; the damaged file was set aside as {corrupt_path!r}"
            except OSError:
                aside = ""
            raise SearchError(
                f"checkpoint {path!r} is not valid JSON: {exc}{aside}") from exc
        except OSError as exc:
            raise SearchError(f"cannot read checkpoint {path!r}: {exc}") from exc
        try:
            return cls.from_dict(document)
        except (KeyError, TypeError, AttributeError) as exc:
            raise SearchError(
                f"checkpoint {path!r} is malformed (missing or mistyped field: {exc})"
            ) from exc


# -- the round loop every search runs ------------------------------------------------

class CheckpointableSearch:
    """Base class that runs a search under crash-exact checkpoint/resume.

    GEVO, random search and the hill climber are one loop of *rounds*:
    spawn individuals, evaluate them as one batch, score them.
    :meth:`run` times the run, runs the rounds (:meth:`_run_rounds`: the
    fresh start or the validated resume, the ``search.start`` and
    ``search.resume_replay`` events, the four kill points of every
    round, the checkpoint cadence and the final checkpoint), calls
    ``_finish()``, emits ``search.end`` and returns one
    :class:`SearchResult`.  A search keeps only its own state and
    supplies:

    * ``_start_fresh(baseline)`` -- its state before the first round;
    * ``_spawn()`` -- the next round's individuals, or ``None`` when done;
    * ``_score(individuals)`` -- advance ``_round``, track ``_best``,
      record the history and emit the per-round event;
    * its ``state`` payload, both ways: ``capture_checkpoint()``, which
      returns ``self._capture(state)``, and ``_restore_state(checkpoint)``
      (``_round`` and ``_best`` are restored before it is called); a
      search without one, like random search, keeps the defaults;
    * ``_start_fields()`` and ``_end_fields()`` -- its fields of the
      ``search.start`` and ``search.end`` events;
    * optionally ``_finish()`` -- extra result fields, computed inside
      the timed window -- and the ``result_type`` that carries them.
    """

    #: Discriminator recorded in every checkpoint this search writes.
    algorithm: str = "search"
    #: What :meth:`run` returns.
    result_type = SearchResult

    def __init__(self, adapter, config: GevoConfig, *, engine=None,
                 **generator_options):
        if engine is None:
            # Imported here: the engine imports the cache, which imports
            # gevo, and gevo.search imports this module.
            from .engine import EvaluationEngine

            engine = EvaluationEngine(adapter)
        self.adapter = adapter
        self.config = config
        self.rng = random.Random(config.seed)
        self.engine = engine
        self.original = engine.original
        self.generator = EditGenerator(self.original, self.rng,
                                       weights=config.edit_weights,
                                       **generator_options)
        # Protocol state, set by a fresh start or a resume.
        self._history: Optional[SearchHistory] = None
        #: Cache keys of the edit sets this search has been charged for;
        #: its size is the evaluation count.
        self._charged: Set[str] = set()
        self._round = 0
        self._best: Optional[Individual] = None
        self._telemetry = engine.telemetry

    def run(self, *, checkpoint_path: Optional[str] = None,
            checkpoint_every: Optional[int] = None,
            resume_from: Optional[str] = None) -> SearchResult:
        """Run the search to the end of its budget and return its result.

        With ``checkpoint_path`` the full search state is written there
        every ``checkpoint_every`` rounds (default: every round) and once
        more at the end, so re-running a finished command resumes and
        finishes at once.  ``resume_from`` is the path of a checkpoint to
        continue from instead of starting fresh; it must match this
        search's algorithm, workload, architecture and configuration.
        """
        start = time.perf_counter()
        baseline = self._run_rounds(checkpoint_path, checkpoint_every, resume_from)
        extra = self._finish()
        seconds = time.perf_counter() - start
        best = self._best
        self._telemetry.event(
            "search.end", algorithm=self.algorithm, **self._end_fields(),
            best_fitness=best.fitness if best is not None else None,
            evaluations=len(self._charged), wall_clock_seconds=seconds)
        return self.result_type(
            best=best, history=self._history, baseline=baseline,
            config=self.config, evaluations=len(self._charged),
            wall_clock_seconds=seconds, **extra)

    def _finish(self) -> Dict[str, object]:
        return {}

    def _end_fields(self) -> Dict[str, object]:
        return {"generations": self._round}

    def _evaluate(self, individuals: Sequence[Individual]) -> None:
        """Evaluate every unevaluated individual as one batch and charge it.

        The evaluation count is what the paper counts: the distinct edit
        sets this search has submitted since it began.  That is a pure
        function of the search timeline, not of how warm any cache is,
        so the count is the same whether the run went uninterrupted, was
        killed and resumed, or was killed before its first checkpoint
        and restarted against a partly warmed disk cache.  The batch's
        canonical keys are charged after it evaluates (never on a
        raising batch), so a crashed batch is replayed and charged on
        resume instead.

        A variant's identity is its edit **multiset**, following the
        paper's set-based ``f(S)`` treatment: the engine's cache key is
        order-insensitive, so permuted but identical edit lists share
        one entry.  In the rare case where two orderings of the same
        multiset replay to different programs (tolerant skipping makes
        ``apply_edits`` order-sensitive when edits interact), the first
        ordering evaluated defines the cached fitness for all of them;
        held-out validation replays the best individual's own edit
        order, so a divergent variant surfaces as a validation failure
        rather than silently shipping.
        """
        pending = [ind for ind in individuals if ind.needs_evaluation()]
        if not pending:
            return
        engine = self.engine
        results = engine.evaluate_many([ind.edits for ind in pending])
        self._charged.update(engine.cache_key(ind.edits).to_string()
                             for ind in pending)
        for individual, result in zip(pending, results):
            individual.mark_evaluated(
                result.runtime_ms if result.valid else None, result.valid)

    def _run_rounds(self, checkpoint_path: Optional[str],
                    checkpoint_every: Optional[int],
                    resume_from: Optional[str]) -> FitnessResult:
        """Run every round from a fresh start or a checkpoint; returns the baseline."""
        engine = self.engine
        telemetry = self._telemetry
        if resume_from is not None:
            checkpoint = resolve_checkpoint(resume_from, algorithm=self.algorithm,
                                            workload_id=engine.workload_id,
                                            config=self.config,
                                            arch_name=engine.arch_name)
            # The charged set comes from the checkpoint, never from the
            # cache: after a crash the disk tier may hold results flushed
            # during the half-finished round, and a sweep's shared cache
            # holds sibling legs' results; charging neither keeps the
            # replayed rounds' accounting exact.
            engine.cache.import_entries(checkpoint.results)
            self._charged = set(checkpoint.results)
            self._history = checkpoint.restore_history()
            self.rng.setstate(checkpoint.restore_rng_state())
            self._round = checkpoint.round
            self._best = checkpoint.restore_best()
            self._restore_state(checkpoint)
            baseline = engine.baseline()
            telemetry.event("search.resume_replay", algorithm=self.algorithm,
                            round=self._round, evaluations=len(self._charged),
                            path=str(resume_from))
        else:
            baseline = engine.baseline()
            self._charged = {engine.cache_key([]).to_string()}
            self._history = SearchHistory(baseline_runtime=baseline.runtime_ms)
            self._round = 0
            self._start_fresh(baseline)
        telemetry.event("search.start", algorithm=self.algorithm,
                        workload=engine.workload_id, **self._start_fields(),
                        seed=self.config.seed, resumed=resume_from is not None,
                        executor=engine.executor.name)

        every = max(1, checkpoint_every or 1)
        while (individuals := self._spawn()) is not None:
            kill_point("search.round.spawned")
            self._evaluate(individuals)
            kill_point("search.round.evaluated")
            self._score(individuals)
            kill_point("search.round.scored")
            if checkpoint_path is not None and self._round % every == 0:
                self.capture_checkpoint().save(checkpoint_path)
                telemetry.event("search.checkpoint", path=str(checkpoint_path),
                                round=self._round)
                kill_point("search.round.checkpointed")
        if checkpoint_path is not None:
            # Final state, regardless of the cadence: re-running the same
            # command resumes (and immediately finishes) instead of
            # repeating the tail since the last periodic checkpoint.
            self.capture_checkpoint().save(checkpoint_path)
        kill_point("search.finished")
        return baseline

    def _start_fresh(self, baseline: FitnessResult) -> None:
        pass

    def capture_checkpoint(self) -> SearchCheckpoint:
        return self._capture({})

    def _restore_state(self, checkpoint: SearchCheckpoint) -> None:
        pass

    def _capture(self, state: Dict[str, object]) -> SearchCheckpoint:
        """This search's checkpoint around its own *state* payload."""
        # Imported here: the cache imports gevo, which imports this module.
        from .cache import CacheKey, result_to_dict

        engine = self.engine
        peek = engine.cache.peek
        return SearchCheckpoint(
            algorithm=self.algorithm,
            workload_id=engine.workload_id,
            arch_name=engine.arch_name,
            config=dataclasses.asdict(self.config),
            rng_state=serialize_rng_state(self.rng.getstate()),
            history=serialize_history(self._history),
            round=self._round,
            best=(serialize_individual(self._best)
                  if self._best is not None else None),
            state=state,
            results={key: result_to_dict(peek(CacheKey.from_string(key)))
                     for key in sorted(self._charged)},
        )


def resolve_checkpoint(path: str, *, algorithm: str, workload_id: str,
                       config: GevoConfig, arch_name: str) -> SearchCheckpoint:
    """Load the checkpoint at *path* and validate it for one resume request.

    The checkpoint must have been written by the same *algorithm*, for
    the same *workload* and *arch*, under the same *config*; any mismatch
    raises :class:`SearchError` naming what differs (resuming under
    different settings would silently produce a run that matches neither
    the old nor a fresh one).
    """
    checkpoint = SearchCheckpoint.load(path)
    if checkpoint.algorithm != algorithm:
        raise SearchError(
            f"checkpoint was written by the {checkpoint.algorithm!r} search, "
            f"not {algorithm!r}; use the matching subcommand (or start fresh)")
    # Before the workload: a workload id may name its arch too, and the
    # arch message says which flag to fix.
    if checkpoint.arch_name != arch_name:
        raise SearchError(
            f"checkpoint was recorded on architecture {checkpoint.arch_name!r}, "
            f"not {arch_name!r}; resume with the original --arch (or start fresh)")
    if checkpoint.workload_id != workload_id:
        raise SearchError(
            f"checkpoint belongs to workload {checkpoint.workload_id!r}, "
            f"not {workload_id!r}")
    if checkpoint.restore_config() != config:
        raise SearchError(
            "checkpoint was recorded with a different configuration "
            f"({describe_config_mismatch(checkpoint.config, dataclasses.asdict(config))}); "
            "resume with the original configuration (or start a fresh search)")
    return checkpoint


def describe_config_mismatch(recorded: Dict[str, object],
                             requested: Dict[str, object]) -> str:
    """Name exactly which config fields differ between checkpoint and request.

    A silent resume into a mismatched run produces results matching
    neither the old run nor a fresh one, so the refusal must tell the
    user *which* flag to fix (``seed 7 -> 9``), not just that something
    differs.
    """
    differences = []
    for name in sorted(set(recorded) | set(requested)):
        old, new = recorded.get(name, "<absent>"), requested.get(name, "<absent>")
        if old != new:
            differences.append(f"{name}: checkpoint has {old!r}, requested {new!r}")
    return "; ".join(differences) if differences else "fields differ in type only"
