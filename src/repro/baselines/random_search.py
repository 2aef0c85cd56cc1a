"""Random search baseline.

The paper motivates evolutionary search by its ability to assemble
interdependent edits via crossover and selection; pure random sampling of
edit lists is the natural null hypothesis.  The baseline draws individuals
with random edit lists (no selection, no crossover) under the same
evaluation budget so its best-found variant can be compared with GEVO's.

Like :class:`~repro.gevo.search.GevoSearch`, the sampling waves are the
rounds of :class:`~repro.runtime.checkpoint.CheckpointableSearch`: pass
``checkpoint_path=`` to snapshot the run (RNG state, wave counter,
best-so-far, history and the fitness of every sample it was charged
for) after each sampling wave, and ``resume_from=`` to continue an
interrupted run bit-for-bit without re-simulating anything it already
evaluated.  Every wave is full (the budget is population x generations),
so the wave counter is all the state the loop keeps.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..gevo.config import GevoConfig
from ..gevo.fitness import WorkloadAdapter
from ..gevo.genome import Individual
from ..runtime.checkpoint import CheckpointableSearch


class RandomSearch(CheckpointableSearch):
    """Samples random edit lists under a GEVO-equivalent evaluation budget.

    Its rounds are sampling waves; ``run(checkpoint_every=)`` counts them.
    """

    algorithm = "random_search"

    def __init__(self, adapter: WorkloadAdapter, config: GevoConfig,
                 max_edits_per_individual: int = 8, *, engine=None):
        super().__init__(adapter, config, engine=engine)
        self.max_edits_per_individual = max_edits_per_individual

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

    def _spawn(self) -> Optional[List[Individual]]:
        # One wave per round (parallel under a pool-backed engine).
        if self._round >= self.config.generations:
            return None
        return [self._random_individual() for _ in range(self.config.population_size)]

    def _score(self, batch: List[Individual]) -> None:
        self._round += 1
        for individual in batch:
            if individual.valid and (
                    self._best is None
                    or (individual.fitness or math.inf) < (self._best.fitness or math.inf)):
                self._best = individual
        record = self._history.record_generation(
            self._round, batch, self._best, len(self._charged))
        self._telemetry.event(
            "search.generation", generation=self._round,
            best_fitness=record.best_fitness, mean_fitness=record.mean_fitness,
            valid_count=record.valid_count, stagnation=0,
            evaluations=record.evaluations)
