"""Algorithm 1: identify and remove *weak* edits.

The best GEVO individuals carry hundreds or thousands of edits (1394 for
ADEPT-V1, 384 for SIMCoV in the paper) of which only a handful matter.
Algorithm 1 walks the edit set and moves any edit whose removal changes
performance by less than a threshold (1% in the paper, measured with
nvprof; here with the simulator's cycle counts) into the *weak* set.  The
remaining edits preserve almost all of the variant's improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..gevo.edits import Edit
from ..gevo.fitness import EditSetEvaluator, WorkloadAdapter


@dataclass
class MinimizationResult:
    """Outcome of Algorithm 1."""

    significant: List[Edit]
    weak: List[Edit]
    baseline_runtime: float
    full_runtime: float
    minimized_runtime: float
    evaluations: int

    @property
    def full_improvement(self) -> float:
        """Fractional improvement of the full edit set over the baseline."""
        if self.full_runtime <= 0 or not math.isfinite(self.full_runtime):
            return 0.0
        return (self.baseline_runtime - self.full_runtime) / self.baseline_runtime

    @property
    def minimized_improvement(self) -> float:
        """Fractional improvement retained after removing the weak edits."""
        if self.minimized_runtime <= 0 or not math.isfinite(self.minimized_runtime):
            return 0.0
        return (self.baseline_runtime - self.minimized_runtime) / self.baseline_runtime

    @property
    def improvement_lost(self) -> float:
        """How much improvement the minimization gave up (paper: 0.9%)."""
        return self.full_improvement - self.minimized_improvement

    def summary(self) -> str:
        return (f"{len(self.significant) + len(self.weak)} edits -> "
                f"{len(self.significant)} significant "
                f"({self.full_improvement:.1%} -> {self.minimized_improvement:.1%} improvement)")


def identify_weak_edits(adapter: WorkloadAdapter, edits: Sequence[Edit],
                        threshold: float = 0.01,
                        engine=None) -> MinimizationResult:
    """Run Algorithm 1 over *edits*.

    For each edit ``e`` (in order), compare the fitness of the current
    working set with and without ``e``; if the relative difference is below
    *threshold*, ``e`` is weak and permanently removed from the working set
    before the next edit is examined (exactly the ``S - weaks`` bookkeeping
    of the paper's pseudo-code).

    Pass *engine* (an :class:`~repro.runtime.engine.EvaluationEngine`) to
    share a fitness cache with other analyses over the same workload.
    The walk itself is inherently sequential -- each step's leave-one-out
    set depends on which earlier edits turned out weak -- so this
    algorithm gains from the engine's cache, not from its parallelism,
    and its reported ``evaluations`` count is identical under any
    executor.
    """
    evaluator = EditSetEvaluator(adapter, edits, engine=engine)
    working: List[Edit] = list(edits)
    weak: List[Edit] = []
    baseline = evaluator.baseline_fitness()
    full_runtime = evaluator.fitness(edits)

    for edit in list(edits):
        with_edit = [e for e in working]
        without_edit = [e for e in working if e.key() != edit.key()]
        runtime_with = evaluator.fitness(with_edit)
        runtime_without = evaluator.fitness(without_edit)
        if not math.isfinite(runtime_without):
            # Removing the edit breaks the variant: definitely not weak.
            continue
        if not math.isfinite(runtime_with):
            # The working set itself is broken with this edit present; drop it.
            weak.append(edit)
            working = without_edit
            continue
        relative_change = (runtime_without - runtime_with) / runtime_without
        if relative_change < threshold:
            weak.append(edit)
            working = without_edit

    minimized_runtime = evaluator.fitness(working)
    return MinimizationResult(
        significant=working,
        weak=weak,
        baseline_runtime=baseline,
        full_runtime=full_runtime,
        minimized_runtime=minimized_runtime,
        evaluations=evaluator.evaluations,
    )
