"""Random search baseline.

The paper motivates evolutionary search by its ability to assemble
interdependent edits via crossover and selection; pure random sampling of
edit lists is the natural null hypothesis.  The baseline draws individuals
with random edit lists (no selection, no crossover) under the same
evaluation budget so its best-found variant can be compared with GEVO's.

Like :class:`~repro.gevo.search.GevoSearch`, the sampling waves are the
rounds of :class:`~repro.runtime.checkpoint.CheckpointableSearch`: pass
``checkpoint_path=`` to snapshot the run (RNG state, best-so-far, history
and fitness-cache contents) after each sampling wave, and
``resume_from=`` to continue an interrupted run bit-for-bit without
re-simulating anything it already evaluated.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..gevo.config import GevoConfig
from ..gevo.fitness import WorkloadAdapter
from ..gevo.genome import Individual
from ..runtime.checkpoint import CheckpointableSearch, SearchCheckpoint, serialize_individual


class RandomSearch(CheckpointableSearch):
    """Samples random edit lists under a GEVO-equivalent evaluation budget.

    Its rounds are sampling waves; ``run(checkpoint_every=)`` counts them.
    """

    algorithm = "random_search"

    def __init__(self, adapter: WorkloadAdapter, config: GevoConfig,
                 max_edits_per_individual: int = 8, *, engine=None):
        super().__init__(adapter, config, engine=engine)
        self.max_edits_per_individual = max_edits_per_individual
        # Working state of the sampling loop (captured by checkpoints).
        self._evaluated = 0

    def _random_individual(self) -> Individual:
        length = self.rng.randint(1, self.max_edits_per_individual)
        edits = []
        for _ in range(length):
            edit = self.generator.random_edit()
            if edit is not None:
                edits.append(edit)
        return Individual(edits=edits)

    # -- CheckpointableSearch ----------------------------------------------------------
    def _start_fields(self):
        return {"budget": self.config.population_size * self.config.generations}

    def _start_fresh(self, baseline) -> None:
        self._best = None
        self._evaluated = 0

    def _spawn(self) -> Optional[List[Individual]]:
        # One wave per round (parallel under a pool-backed engine).
        config = self.config
        remaining = config.population_size * config.generations - self._evaluated
        if remaining <= 0:
            return None
        return [self._random_individual()
                for _ in range(min(config.population_size, remaining))]

    def _score(self, batch: List[Individual]) -> None:
        self._evaluated += len(batch)
        self._round += 1
        for individual in batch:
            if individual.valid and (
                    self._best is None
                    or (individual.fitness or math.inf) < (self._best.fitness or math.inf)):
                self._best = individual
        record = self._history.record_generation(self._round, batch, self._best,
                                                 self._evaluated)
        self._telemetry.event(
            "search.generation", generation=self._round,
            best_fitness=record.best_fitness, mean_fitness=record.mean_fitness,
            valid_count=record.valid_count, stagnation=0,
            evaluations=record.evaluations)

    def capture_checkpoint(self) -> SearchCheckpoint:
        return self._capture({
            "generation": self._round,
            "evaluated": self._evaluated,
            "best": (serialize_individual(self._best)
                     if self._best is not None else None),
        })

    def _restore_state(self, checkpoint: SearchCheckpoint) -> None:
        self._best = checkpoint.restore_best()
        self._evaluated = int(checkpoint.state.get("evaluated", 0))
