"""The GEVO generational search loop.

One generation performs, in order: fitness evaluation of every new
individual, elitism (the best individuals survive unchanged), tournament
selection of parents, crossover with the configured probability, and
per-individual mutation.  The loop matches the description in Sections
II-A and III-E of the paper; runtime is the fitness, invalid variants
(failed test cases or kernel traps) never reproduce preferentially.

Fitness evaluation routes through the evaluation runtime
(:mod:`repro.runtime`): each generation is submitted as one batch, so an
engine with a process-pool executor evaluates the whole population
concurrently.  The generations are the rounds of
:class:`~repro.runtime.checkpoint.CheckpointableSearch`, which
checkpoints them (``checkpoint_path=``) and resumes them exactly --
population, best individual, RNG state, history and the fitness of
every variant the search was charged for are all restored, so a resumed
run reproduces the uninterrupted one bit-for-bit and never re-simulates
a variant evaluated before the interruption.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..errors import SearchError
from ..runtime.checkpoint import CheckpointableSearch, SearchCheckpoint, serialize_individual
from .config import GevoConfig
from .crossover import maybe_crossover
from .fitness import FitnessResult, WorkloadAdapter
from .genome import Individual, apply_edits, seed_population
from .history import SearchResult
from .mutation import maybe_mutate
from .selection import best_individual, select_elites, select_parents


class GevoSearch(CheckpointableSearch):
    """Evolutionary search driver.

    Its rounds are generations, run by
    :class:`~repro.runtime.checkpoint.CheckpointableSearch`, which can
    checkpoint and resume the search at any generation boundary.
    """

    algorithm = "gevo"

    def __init__(self, adapter: WorkloadAdapter, config: GevoConfig, *,
                 candidate_edits=None, candidate_probability: float = 0.0,
                 engine=None):
        super().__init__(adapter, config, engine=engine,
                         candidate_edits=candidate_edits,
                         candidate_probability=candidate_probability)
        # Working state of the generational loop (captured by checkpoints).
        self._population: List[Individual] = []
        self._stagnation = 0
        self._validate_best = False

    def run(self, *, validate_best: bool = False, **options) -> SearchResult:
        """Run the configured number of generations and return the result.

        ``validate_best`` also runs the best variant's held-out tests.
        The other *options* are those of
        :meth:`~repro.runtime.checkpoint.CheckpointableSearch.run`
        (``checkpoint_every`` counts generations).
        """
        self._validate_best = validate_best
        return super().run(**options)

    # -- CheckpointableSearch ----------------------------------------------------------
    def _start_fields(self):
        return {"generations": self.config.generations,
                "population_size": self.config.population_size}

    def _start_fresh(self, baseline: FitnessResult) -> None:
        if not baseline.valid:
            raise SearchError(
                f"the unmodified program of workload {self.adapter.name!r} fails its own "
                "test cases; fix the workload before searching")
        self._stagnation = 0
        self._population = seed_population(self.config.population_size)
        self._evaluate(self._population)
        self._best = best_individual(self._population)

    def _finish(self) -> Dict[str, object]:
        if not self._validate_best or self._best is None:
            return {}
        applied = apply_edits(self.original, self._best.edits)
        return {"validation": self.adapter.validate(applied.module)}

    def _spawn(self) -> Optional[List[Individual]]:
        """Breed the next generation: elitism, tournament selection,
        crossover and per-individual mutation."""
        config = self.config
        # Checked before breeding so a resumed run that had already
        # stopped on stagnation stops again immediately instead of
        # evaluating one extra generation (which would break resume
        # equivalence).
        if self._round >= config.generations or (
                config.stagnation_limit and self._stagnation >= config.stagnation_limit):
            return None
        population = self._population
        next_population: List[Individual] = select_elites(population, config.elitism)
        needed = config.population_size - len(next_population)
        parents = select_parents(population, needed + 1, config.tournament_size, self.rng)
        children: List[Individual] = []
        index = 0
        while len(children) < needed:
            parent_a = parents[index % len(parents)]
            parent_b = parents[(index + 1) % len(parents)]
            index += 2
            child_one, child_two = maybe_crossover(parent_a, parent_b, config, self.rng)
            children.append(child_one)
            if len(children) < needed:
                children.append(child_two)
        mutated = [maybe_mutate(child, self.generator, config, self.rng) for child in children]
        next_population.extend(mutated)
        self._population = next_population
        return next_population

    def _score(self, population: List[Individual]) -> None:
        generation_best = best_individual(population)
        if generation_best is not None and (
                self._best is None
                or (generation_best.fitness or math.inf) < (self._best.fitness or math.inf)):
            self._best = generation_best
            self._stagnation = 0
        else:
            self._stagnation += 1
        self._round += 1
        record = self._history.record_generation(self._round, population, self._best,
                                                 len(self._charged))
        self._telemetry.event(
            "search.generation", generation=self._round,
            best_fitness=record.best_fitness, mean_fitness=record.mean_fitness,
            valid_count=record.valid_count, stagnation=self._stagnation,
            evaluations=record.evaluations)

    def capture_checkpoint(self) -> SearchCheckpoint:
        return self._capture({
            "stagnation": self._stagnation,
            "population": [serialize_individual(ind) for ind in self._population],
        })

    def _restore_state(self, checkpoint: SearchCheckpoint) -> None:
        self._population = checkpoint.restore_population()
        self._stagnation = int(checkpoint.state_field("stagnation"))


def run_repeated_searches(adapter: WorkloadAdapter, config: GevoConfig, runs: int,
                          *, base_seed: int = 0, candidate_edits=None,
                          candidate_probability: float = 0.0,
                          engine=None) -> List[SearchResult]:
    """Run GEVO *runs* times with different seeds (Figure 6 methodology).

    When an *engine* is supplied it is shared across the runs, so variants
    rediscovered by several seeds (the baseline, elites, common single
    edits) are evaluated once for the whole sweep.
    """
    results = []
    for run_index in range(runs):
        run_config = config.with_(seed=base_seed + run_index)
        search = GevoSearch(adapter, run_config, candidate_edits=candidate_edits,
                            candidate_probability=candidate_probability,
                            engine=engine)
        results.append(search.run())
    return results
