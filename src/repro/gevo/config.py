"""Configuration of the GEVO search.

The defaults of :meth:`GevoConfig.paper_adept` and
:meth:`GevoConfig.paper_simcov` match Section III-E of the paper
(population 256, elitism 4, crossover 80%, mutation 30% per individual per
generation, ~300 generations for ADEPT and ~130 for SIMCoV).  Because the
simulated GPU runs many orders of magnitude slower than silicon, tests,
examples and benchmarks use :meth:`GevoConfig.quick` -- the same algorithm
at a much smaller scale -- and each experiment module records the scaling
it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..errors import SearchError

#: Default relative probabilities of generating each edit kind during mutation.
DEFAULT_EDIT_WEIGHTS: Dict[str, float] = {
    "operand": 0.35,
    "delete": 0.20,
    "copy": 0.15,
    "replace": 0.15,
    "move": 0.10,
    "swap": 0.05,
}


@dataclass(frozen=True)
class GevoConfig:
    """Hyper-parameters of one GEVO run."""

    population_size: int = 256
    generations: int = 300
    crossover_probability: float = 0.8
    mutation_probability: float = 0.3
    elitism: int = 4
    tournament_size: int = 3
    seed: Optional[int] = None
    #: Probability split inside a mutation event.
    mutation_add_probability: float = 0.7
    mutation_remove_probability: float = 0.15
    mutation_rewrite_probability: float = 0.15
    #: Relative weights of edit kinds when generating a new random edit.
    edit_weights: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_EDIT_WEIGHTS))
    #: Hard cap on genome length (0 disables the cap).
    max_edits_per_individual: int = 0
    #: Stop early if the best fitness has not improved for this many
    #: generations (0 disables early stopping).
    stagnation_limit: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise SearchError("population_size must be at least 2")
        if self.generations < 1:
            raise SearchError("generations must be at least 1")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise SearchError("crossover_probability must be within [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise SearchError("mutation_probability must be within [0, 1]")
        if self.elitism < 0 or self.elitism > self.population_size:
            raise SearchError("elitism must be between 0 and population_size")
        if self.tournament_size < 1:
            raise SearchError("tournament_size must be at least 1")
        total = (self.mutation_add_probability + self.mutation_remove_probability
                 + self.mutation_rewrite_probability)
        if abs(total - 1.0) > 1e-9:
            raise SearchError("mutation add/remove/rewrite probabilities must sum to 1")

    def with_(self, **changes) -> "GevoConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **changes)

    # -- presets -------------------------------------------------------------------
    @classmethod
    def paper_adept(cls, seed: Optional[int] = None) -> "GevoConfig":
        """The configuration used for ADEPT in the paper (7-day budget)."""
        return cls(population_size=256, generations=300, crossover_probability=0.8,
                   mutation_probability=0.3, elitism=4, seed=seed)

    @classmethod
    def paper_simcov(cls, seed: Optional[int] = None) -> "GevoConfig":
        """The configuration used for SIMCoV in the paper (2-day budget)."""
        return cls(population_size=256, generations=130, crossover_probability=0.8,
                   mutation_probability=0.3, elitism=4, seed=seed)

    @classmethod
    def quick(cls, seed: Optional[int] = None, *, population_size: int = 16,
              generations: int = 10) -> "GevoConfig":
        """A scaled-down configuration suitable for tests and benchmarks."""
        return cls(population_size=population_size, generations=generations,
                   crossover_probability=0.8, mutation_probability=0.5,
                   elitism=2, tournament_size=2, seed=seed)
