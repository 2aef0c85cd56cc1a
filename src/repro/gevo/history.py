"""Search-history recording.

The paper's Figures 6 and 8 are built from the *history* of GEVO runs: the
per-generation best fitness (to plot speedup trajectories and their
distribution over repeated runs) and the generation at which each edit of
interest first appeared in the best individual (the "discovery sequence"
of the epistatic cluster).  :class:`SearchHistory` records exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .config import GevoConfig
from .fitness import FitnessResult
from .genome import Individual


@dataclass
class GenerationRecord:
    """Summary of one generation."""

    generation: int
    best_fitness: Optional[float]
    mean_fitness: Optional[float]
    valid_count: int
    population_size: int
    best_edit_keys: Tuple[Tuple, ...] = ()
    evaluations: int = 0

    def speedup_over(self, baseline_runtime: float) -> Optional[float]:
        if self.best_fitness is None or self.best_fitness <= 0:
            return None
        return baseline_runtime / self.best_fitness


@dataclass
class SearchHistory:
    """Chronological record of a GEVO run."""

    baseline_runtime: float
    records: List[GenerationRecord] = field(default_factory=list)
    #: Edit key -> generation at which the edit first appeared in the best individual.
    first_seen_in_best: Dict[Tuple, int] = field(default_factory=dict)
    #: Edit key -> generation at which the edit first appeared anywhere in the population.
    first_seen_in_population: Dict[Tuple, int] = field(default_factory=dict)

    def record_generation(self, generation: int, population: Sequence[Individual],
                          best: Optional[Individual], evaluations: int) -> GenerationRecord:
        valid = [ind for ind in population if ind.valid and ind.fitness is not None]
        mean_fitness = (sum(ind.fitness for ind in valid) / len(valid)) if valid else None
        record = GenerationRecord(
            generation=generation,
            best_fitness=best.fitness if best is not None else None,
            mean_fitness=mean_fitness,
            valid_count=len(valid),
            population_size=len(population),
            best_edit_keys=best.edit_keys() if best is not None else (),
            evaluations=evaluations,
        )
        self.records.append(record)
        for individual in population:
            for key in individual.edit_keys():
                self.first_seen_in_population.setdefault(key, generation)
        if best is not None:
            for key in best.edit_keys():
                self.first_seen_in_best.setdefault(key, generation)
        return record

    # -- queries -----------------------------------------------------------------------
    def generations(self) -> int:
        return len(self.records)

    def best_fitness_series(self) -> List[Optional[float]]:
        return [record.best_fitness for record in self.records]

    def speedup_series(self) -> List[Optional[float]]:
        """Per-generation speedup of the best individual over the baseline."""
        return [record.speedup_over(self.baseline_runtime) for record in self.records]

    def discovery_generation(self, edit_key: Tuple, *, in_best: bool = True) -> Optional[int]:
        """Generation at which an edit was first discovered (None if never)."""
        table = self.first_seen_in_best if in_best else self.first_seen_in_population
        return table.get(edit_key)

    def discovery_sequence(self, edit_keys: Sequence[Tuple],
                           *, in_best: bool = True) -> List[Tuple[Tuple, Optional[int]]]:
        """Discovery generations for *edit_keys*, sorted by generation (Figure 8)."""
        pairs = [(key, self.discovery_generation(key, in_best=in_best)) for key in edit_keys]
        return sorted(pairs, key=lambda item: (item[1] is None, item[1]))


@dataclass
class SearchResult:
    """Outcome of one search run: GEVO, random search or the hill climber."""

    best: Optional[Individual]
    history: SearchHistory
    baseline: FitnessResult
    config: GevoConfig
    evaluations: int
    wall_clock_seconds: float
    #: Validation (held-out tests) of the final best individual, if requested.
    validation: Optional[FitnessResult] = None

    @property
    def speedup(self) -> float:
        """Speedup of the best discovered variant over the unmodified program."""
        if self.best is None or not self.best.valid or not self.best.fitness:
            return 1.0
        return self.baseline.runtime_ms / self.best.fitness

    def best_edits(self) -> List:
        return list(self.best.edits) if self.best is not None else []
