"""GEVO: evolutionary search over mini-IR GPU kernels.

Typical usage::

    from repro.gevo import GevoConfig, GevoSearch

    search = GevoSearch(adapter, GevoConfig.quick(seed=1))
    result = search.run()
    print(result.speedup, len(result.best.edits))

where ``adapter`` is a :class:`WorkloadAdapter` (see
:mod:`repro.workloads.adept` and :mod:`repro.workloads.simcov` for the two
paper workloads, or implement your own for a custom kernel).
"""

from .config import DEFAULT_EDIT_WEIGHTS, GevoConfig
from .crossover import maybe_crossover, one_point_crossover, uniform_crossover
from .edits import (
    Edit,
    InstructionCopy,
    InstructionDelete,
    InstructionMove,
    InstructionReplace,
    InstructionSwap,
    OperandReplace,
    edit_from_dict,
    edit_kinds,
)
from .fitness import CaseResult, EditSetEvaluator, FitnessResult, WorkloadAdapter
from .genome import AppliedGenome, Individual, apply_edits, seed_population
from .history import GenerationRecord, SearchHistory, SearchResult
from .mutation import EditGenerator, maybe_mutate, mutate
from .search import GevoSearch, run_repeated_searches
from .selection import best_individual, rank_population, select_elites, tournament_select

__all__ = [
    "AppliedGenome",
    "CaseResult",
    "DEFAULT_EDIT_WEIGHTS",
    "Edit",
    "EditGenerator",
    "EditSetEvaluator",
    "FitnessResult",
    "GenerationRecord",
    "GevoConfig",
    "GevoSearch",
    "Individual",
    "InstructionCopy",
    "InstructionDelete",
    "InstructionMove",
    "InstructionReplace",
    "InstructionSwap",
    "OperandReplace",
    "SearchHistory",
    "SearchResult",
    "WorkloadAdapter",
    "apply_edits",
    "best_individual",
    "edit_from_dict",
    "edit_kinds",
    "maybe_crossover",
    "maybe_mutate",
    "mutate",
    "one_point_crossover",
    "rank_population",
    "run_repeated_searches",
    "seed_population",
    "select_elites",
    "tournament_select",
    "uniform_crossover",
]
