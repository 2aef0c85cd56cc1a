"""First-improvement hill-climbing baseline.

A single individual is mutated one edit at a time; a mutation is kept only
when it strictly improves fitness (and still validates).  Hill climbing
can find independent edits but cannot assemble interdependent clusters
whose members are individually invalid -- which is exactly the paper's
argument for why population-based EC matters (Section V / VII).

Like :class:`~repro.gevo.search.GevoSearch`, the climb's steps are the
rounds of :class:`~repro.runtime.checkpoint.CheckpointableSearch`: pass
``checkpoint_path=`` to snapshot the run (current individual, step
counter, accepted/rejected tallies, RNG state, history and fitness-cache
contents), and ``resume_from=`` to continue an interrupted climb
bit-for-bit without re-simulating anything it already evaluated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

from ..errors import SearchError
from ..gevo.config import GevoConfig
from ..gevo.fitness import FitnessResult, WorkloadAdapter
from ..gevo.genome import Individual
from ..gevo.history import SearchHistory
from ..runtime.checkpoint import CheckpointableSearch, SearchCheckpoint, serialize_individual


@dataclass
class HillClimbResult:
    """Outcome of a hill-climbing run."""

    best: Individual
    history: SearchHistory
    baseline: FitnessResult
    accepted_edits: int
    rejected_edits: int
    evaluations: int
    wall_clock_seconds: float

    @property
    def speedup(self) -> float:
        if not self.best.valid or not self.best.fitness:
            return 1.0
        return self.baseline.runtime_ms / self.best.fitness


class HillClimber(CheckpointableSearch):
    """Greedy first-improvement search over single-edit mutations."""

    algorithm = "hill_climber"

    def __init__(self, adapter: WorkloadAdapter, config: GevoConfig, *, engine=None):
        super().__init__(adapter, config, engine=engine)
        # Working state of the climb (captured by checkpoints).
        self._current: Optional[Individual] = None
        self._budget = 0
        self._accepted = 0
        self._rejected = 0
        # The step budget the current run() asked for, if any.
        self._requested_steps: Optional[int] = None

    def run(self, steps: Optional[int] = None, *,
            checkpoint_every: Optional[int] = None, **options) -> HillClimbResult:
        """Climb for the configured number of steps.

        ``steps`` replaces the population x generations budget.  A
        resumed climb keeps the checkpoint's recorded budget; passing a
        conflicting ``steps`` raises :class:`~repro.errors.SearchError`.
        A step is one evaluation and every checkpoint re-serialises the
        search's cache entries, so ``checkpoint_every`` defaults to the
        population size, not to every step.  The other *options* are
        ``checkpoint_path`` and ``resume_from``, as documented on
        :meth:`~repro.runtime.checkpoint.CheckpointableSearch._run_rounds`.
        """
        self._requested_steps = steps
        start = time.perf_counter()
        baseline = self._run_rounds(
            checkpoint_every=checkpoint_every or max(1, self.config.population_size),
            **options)
        current = self._current
        self._telemetry.event(
            "search.end", algorithm=self.algorithm, steps=self._round,
            accepted=self._accepted, rejected=self._rejected,
            best_fitness=current.fitness if current.valid else None,
            evaluations=self._ledger.count,
            wall_clock_seconds=time.perf_counter() - start)
        return HillClimbResult(
            best=current,
            history=self._history,
            baseline=baseline,
            accepted_edits=self._accepted,
            rejected_edits=self._rejected,
            evaluations=self._ledger.count,
            wall_clock_seconds=time.perf_counter() - start,
        )

    # -- CheckpointableSearch ----------------------------------------------------------
    def _start_fields(self):
        return {"budget": self._budget}

    def _start_fresh(self, baseline) -> None:
        self._budget = (self._requested_steps if self._requested_steps is not None
                        else self.config.population_size * self.config.generations)
        self._accepted = 0
        self._rejected = 0
        self._current = Individual()
        self.evaluator.evaluate_population([self._current], ledger=self._ledger)

    def _spawn(self) -> Optional[List[Individual]]:
        while self._round < self._budget:
            self._round += 1
            edit = self.generator.random_edit()
            # A step with no edit to try still spends its place in the
            # budget, but is not a round: nothing is evaluated or scored.
            if edit is not None:
                return [self._current.with_additional_edit(edit)]
        return None

    def _score(self, individuals: List[Individual]) -> None:
        (candidate,) = individuals
        current = self._current
        current_fitness = current.fitness if current.valid else math.inf
        candidate_fitness = candidate.fitness if candidate.valid else math.inf
        if candidate.valid and candidate_fitness < current_fitness:
            current = self._current = candidate
            self._accepted += 1
            accepted = True
        else:
            self._rejected += 1
            accepted = False
        self._history.record_generation(self._round, [current], current, self._round)
        self._telemetry.event(
            "search.step", step=self._round, accepted=accepted,
            best_fitness=current.fitness if current.valid else None,
            edits=len(current.edits))

    def capture_checkpoint(self) -> SearchCheckpoint:
        return self._capture({
            "step": self._round,
            "budget": self._budget,
            "accepted": self._accepted,
            "rejected": self._rejected,
            "current": serialize_individual(self._current),
        })

    def _restore_state(self, checkpoint: SearchCheckpoint) -> None:
        self._budget = int(checkpoint.state.get("budget", 0))
        if self._requested_steps is not None and self._budget != self._requested_steps:
            raise SearchError(
                f"checkpoint was recorded with a budget of {self._budget} steps, "
                f"not {self._requested_steps}; resume with the original budget "
                "(or start fresh)")
        self._current = checkpoint.restore_individual("current")
        self._accepted = int(checkpoint.state.get("accepted", 0))
        self._rejected = int(checkpoint.state.get("rejected", 0))
