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
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SearchError
from ..gevo.config import GevoConfig
from ..gevo.fitness import WorkloadAdapter
from ..gevo.genome import Individual
from ..gevo.history import SearchResult
from ..runtime.checkpoint import CheckpointableSearch, SearchCheckpoint, serialize_individual


@dataclass
class HillClimbResult(SearchResult):
    """Outcome of a hill-climbing run: a search result plus the step tallies."""

    accepted_edits: int = 0
    rejected_edits: int = 0


class HillClimber(CheckpointableSearch):
    """Greedy first-improvement search over single-edit mutations.

    Its best individual is the current one: a step replaces it only when
    the candidate improves on it.
    """

    algorithm = "hill_climber"
    result_type = HillClimbResult

    def __init__(self, adapter: WorkloadAdapter, config: GevoConfig, *, engine=None):
        super().__init__(adapter, config, engine=engine)
        # Working state of the climb (captured by checkpoints).
        self._budget = 0
        self._accepted = 0
        self._rejected = 0
        # The step budget the current run() asked for, if any.
        self._requested_steps: Optional[int] = None

    def run(self, steps: Optional[int] = None, *,
            checkpoint_every: Optional[int] = None, **options) -> HillClimbResult:
        """Climb for the configured number of steps.

        ``steps`` replaces the population x generations budget; a
        negative count raises :class:`~repro.errors.SearchError`.  A
        resumed climb keeps the checkpoint's recorded budget; passing a
        conflicting ``steps`` raises :class:`~repro.errors.SearchError`.
        A step is one evaluation and every checkpoint re-serialises the
        search's cache entries, so ``checkpoint_every`` defaults to the
        population size, not to every step.  The other *options* are
        those of :meth:`~repro.runtime.checkpoint.CheckpointableSearch.run`.
        """
        if steps is not None and steps < 0:
            raise SearchError(f"steps must be a non-negative count, not {steps}")
        self._requested_steps = steps
        return super().run(
            checkpoint_every=checkpoint_every or max(1, self.config.population_size),
            **options)

    # -- CheckpointableSearch ----------------------------------------------------------
    def _start_fields(self):
        return {"budget": self._budget}

    def _start_fresh(self, baseline) -> None:
        self._budget = (self._requested_steps if self._requested_steps is not None
                        else self.config.population_size * self.config.generations)
        self._accepted = 0
        self._rejected = 0
        self._best = Individual()
        self._evaluate([self._best])

    def _spawn(self) -> Optional[List[Individual]]:
        while self._round < self._budget:
            self._round += 1
            edit = self.generator.random_edit()
            # A step with no edit to try still spends its place in the
            # budget, but is not a round: nothing is evaluated or scored.
            if edit is not None:
                return [self._best.with_additional_edit(edit)]
        return None

    def _score(self, individuals: List[Individual]) -> None:
        (candidate,) = individuals
        current = self._best
        current_fitness = current.fitness if current.valid else math.inf
        candidate_fitness = candidate.fitness if candidate.valid else math.inf
        if candidate.valid and candidate_fitness < current_fitness:
            current = self._best = candidate
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

    def _end_fields(self) -> Dict[str, object]:
        return {"steps": self._round, "accepted": self._accepted,
                "rejected": self._rejected}

    def _finish(self) -> Dict[str, object]:
        return {"accepted_edits": self._accepted, "rejected_edits": self._rejected}

    def capture_checkpoint(self) -> SearchCheckpoint:
        return self._capture({
            "step": self._round,
            "budget": self._budget,
            "accepted": self._accepted,
            "rejected": self._rejected,
            "current": serialize_individual(self._best),
        })

    def _restore_state(self, checkpoint: SearchCheckpoint) -> None:
        self._budget = int(checkpoint.state.get("budget", 0))
        if self._requested_steps is not None and self._budget != self._requested_steps:
            raise SearchError(
                f"checkpoint was recorded with a budget of {self._budget} steps, "
                f"not {self._requested_steps}; resume with the original budget "
                "(or start fresh)")
        self._best = checkpoint.restore_individual("current")
        self._accepted = int(checkpoint.state.get("accepted", 0))
        self._rejected = int(checkpoint.state.get("rejected", 0))
