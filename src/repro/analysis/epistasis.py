"""Algorithm 2: separate independent from epistatic (interdependent) edits.

An edit is *independent* when it can be applied alone and removed from the
full set without failure, and its performance contribution is about the
same in isolation as in the context of the other edits.  Everything else
is *epistatic*: its effect depends on which other edits are present.  The
paper finds 5 independent (≈7%) and 12 epistatic (≈17%) edits for
ADEPT-V1, and no impactful epistasis for ADEPT-V0 or SIMCoV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..gevo.edits import Edit
from ..gevo.fitness import EditSetEvaluator, WorkloadAdapter


@dataclass
class EpistasisResult:
    """Outcome of Algorithm 2."""

    independent: List[Edit]
    epistatic: List[Edit]
    baseline_runtime: float
    full_runtime: float
    independent_runtime: float
    epistatic_runtime: float
    evaluations: int

    def _improvement(self, runtime: float) -> float:
        if runtime <= 0 or not math.isfinite(runtime):
            return 0.0
        return (self.baseline_runtime - runtime) / self.baseline_runtime

    @property
    def full_improvement(self) -> float:
        return self._improvement(self.full_runtime)

    @property
    def independent_improvement(self) -> float:
        """Improvement from applying only the independent edits (paper: ~7%)."""
        return self._improvement(self.independent_runtime)

    @property
    def epistatic_improvement(self) -> float:
        """Improvement from applying only the epistatic edits (paper: ~17%)."""
        return self._improvement(self.epistatic_runtime)

    def summary(self) -> str:
        return (f"{len(self.independent)} independent ({self.independent_improvement:.1%}) "
                f"+ {len(self.epistatic)} epistatic ({self.epistatic_improvement:.1%}) "
                f"of total {self.full_improvement:.1%}")


def separate_edits(adapter: WorkloadAdapter, edits: Sequence[Edit],
                   agreement_tolerance: float = 0.35,
                   engine=None) -> EpistasisResult:
    """Run Algorithm 2 over *edits*.

    ``agreement_tolerance`` is the relative slack allowed between an edit's
    isolated improvement (``PerfIncr``) and its in-context contribution
    (``PerfDecr``) before the edit is declared epistatic.

    Pass *engine* to share a fitness cache with the other analyses.  Each
    edit's singleton evaluation (``PerfIncr``, and the fail-alone test) is
    independent of the loop's accumulated state, so the singletons are
    evaluated as one concurrent wave up front.
    """
    evaluator = EditSetEvaluator(adapter, edits, engine=engine)
    all_edits = list(edits)
    independent: List[Edit] = []
    baseline = evaluator.baseline_fitness()
    full_runtime = evaluator.fitness(all_edits)
    # Singleton wave: f({e}) for every edit, in one batch.
    evaluator.results([[edit] for edit in all_edits])

    for edit in all_edits:
        if evaluator.fails([edit]):
            continue
        others = [e for e in all_edits
                  if e.key() != edit.key() and not _in(e, independent)]
        if evaluator.fails(others):
            continue
        runtime_alone = evaluator.fitness([edit])
        runtime_without = evaluator.fitness(others)
        runtime_context = evaluator.fitness(others + [edit])
        if not all(math.isfinite(value) for value in
                   (runtime_alone, runtime_without, runtime_context)):
            continue
        perf_increase = (baseline - runtime_alone) / baseline
        perf_decrease = (runtime_without - runtime_context) / runtime_without
        if _agree(perf_increase, perf_decrease, agreement_tolerance):
            independent.append(edit)

    epistatic = [edit for edit in all_edits if not _in(edit, independent)]
    return EpistasisResult(
        independent=independent,
        epistatic=epistatic,
        baseline_runtime=baseline,
        full_runtime=full_runtime,
        independent_runtime=evaluator.fitness(independent) if independent else baseline,
        epistatic_runtime=evaluator.fitness(epistatic) if epistatic else baseline,
        evaluations=evaluator.evaluations,
    )


def _in(edit: Edit, edits: Sequence[Edit]) -> bool:
    return any(edit.key() == other.key() for other in edits)


def _agree(first: float, second: float, tolerance: float) -> bool:
    """True when two fractional improvements are approximately equal."""
    scale = max(abs(first), abs(second), 0.005)
    return abs(first - second) <= tolerance * scale
