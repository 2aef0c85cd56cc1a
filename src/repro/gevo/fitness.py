"""Fitness evaluation harness.

GEVO's fitness function is the kernel execution time averaged across all
test cases; a variant that fails any test case is invalid and excluded
from the fitness calculation (Section III-E).  The pieces here are:

* :class:`FitnessResult` -- runtime + validity + per-case details.
* :class:`WorkloadAdapter` -- the interface a workload (ADEPT, SIMCoV, or a
  user's own kernel) implements so GEVO, the baselines and the analysis
  algorithms can all drive it.
* :class:`EditSetEvaluator` -- the ``f(S)`` function of Algorithms 1 and 2,
  evaluating arbitrary *sets* of edits with caching; used by the
  minimization and epistasis analyses.

The searches evaluate their individuals through
:class:`~repro.runtime.checkpoint.CheckpointableSearch`, and
:class:`EditSetEvaluator` its subsets; both route every evaluation
through a :class:`repro.runtime.engine.EvaluationEngine`, which owns the
cache (shared canonical keys with :mod:`repro.runtime.cache`, optionally
disk-persisted) and the execution strategy (serial or process-pool).  By
default each builds its own serial in-memory engine; pass ``engine=`` to
share a cache or to evaluate in parallel.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..ir.function import Module
from .edits import Edit


@dataclass
class CaseResult:
    """Outcome of one test case."""

    name: str
    passed: bool
    runtime_ms: float
    message: str = ""


@dataclass
class FitnessResult:
    """Outcome of evaluating one program variant."""

    valid: bool
    #: Mean kernel runtime over the passing test cases (ms); ``inf`` when invalid.
    runtime_ms: float
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def fitness(self) -> float:
        return self.runtime_ms if self.valid else math.inf

    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if not case.passed]

    @classmethod
    def from_cases(cls, cases: Sequence[CaseResult]) -> "FitnessResult":
        cases = list(cases)
        valid = all(case.passed for case in cases) and bool(cases)
        if valid:
            runtime = sum(case.runtime_ms for case in cases) / len(cases)
        else:
            runtime = math.inf
        return cls(valid=valid, runtime_ms=runtime, cases=cases)

    @classmethod
    def invalid(cls, message: str) -> "FitnessResult":
        return cls(valid=False, runtime_ms=math.inf,
                   cases=[CaseResult("error", False, math.inf, message)])


class WorkloadAdapter(abc.ABC):
    """Interface between GEVO and a concrete GPU workload."""

    #: Human-readable workload name ("ADEPT-V1 on P100", ...).
    name: str = "workload"

    @abc.abstractmethod
    def original_module(self) -> Module:
        """The unmodified program GEVO starts from."""

    @abc.abstractmethod
    def evaluate(self, module: Module) -> FitnessResult:
        """Run the fitness test cases against *module*."""

    def validate(self, module: Module) -> FitnessResult:
        """Run the held-out validation tests (defaults to the fitness tests)."""
        return self.evaluate(module)

    def evaluate_batched(self, modules: Sequence[Module]) -> List[FitnessResult]:
        """Fitness of N co-batchable variants, bit-for-bit equal to
        mapping :meth:`evaluate` over *modules*.

        Adapters whose device path supports stacked launches override
        this; the default just evaluates sequentially, so the engine can
        hand any adapter a batch group without special-casing.
        """
        return [self.evaluate(module) for module in modules]

    # -- convenience ---------------------------------------------------------------
    def baseline(self) -> FitnessResult:
        """Fitness of the unmodified program."""
        return self.evaluate(self.original_module())


def _default_engine(adapter: WorkloadAdapter):
    # Imported lazily: repro.runtime builds on the types defined above.
    from ..runtime.engine import EvaluationEngine

    return EvaluationEngine(adapter)


class EditSetEvaluator:
    """The ``f(S)`` oracle used by Algorithms 1 and 2 of the paper.

    Evaluates the program with an arbitrary *set* of edits applied (order is
    the original discovery order restricted to the subset), caching results
    by frozen edit-key set.  ``f(S)`` returns the mean runtime in
    milliseconds or ``math.inf`` when the variant fails its tests.
    """

    def __init__(self, adapter: WorkloadAdapter, universe: Sequence[Edit], *,
                 engine=None):
        self.adapter = adapter
        self.universe = list(universe)
        self.engine = engine if engine is not None else _default_engine(adapter)
        self._original = self.engine.original
        self._evaluations_offset = self.engine.evaluations

    @property
    def evaluations(self) -> int:
        """Adapter evaluations actually executed on this evaluator's behalf."""
        return self.engine.evaluations - self._evaluations_offset

    def _ordered_subset(self, edits: Sequence[Edit]) -> List[Edit]:
        wanted = {edit.key() for edit in edits}
        ordered = [edit for edit in self.universe if edit.key() in wanted]
        # Edits outside the universe (possible when callers construct novel
        # subsets) are appended in the order given.
        known = {edit.key() for edit in ordered}
        ordered.extend(edit for edit in edits if edit.key() not in known)
        return ordered

    def result(self, edits: Sequence[Edit]) -> FitnessResult:
        return self.engine.evaluate(self._ordered_subset(edits))

    def results(self, edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        """Evaluate many subsets as one concurrent wave (input order preserved)."""
        return self.engine.evaluate_many(
            [self._ordered_subset(edits) for edits in edit_sets])

    def fitness(self, edits: Sequence[Edit]) -> float:
        """``f(S)``: mean runtime (ms) of the program with *edits* applied."""
        return self.result(edits).fitness

    def fails(self, edits: Sequence[Edit]) -> bool:
        """True when the variant with *edits* applied fails its test cases."""
        return not self.result(edits).valid

    def baseline_fitness(self) -> float:
        """``f(empty set)``: runtime of the unmodified program."""
        return self.fitness([])
