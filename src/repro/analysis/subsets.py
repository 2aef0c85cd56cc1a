"""Exhaustive subset analysis of an epistatic edit set (Section V-C).

Once Algorithm 2 has isolated a small epistatic set, the paper evaluates
*every* subset of it to find the interdependent clusters and their
contributions (Figure 7).  This module performs that exhaustive sweep and
derives the dependency relations: which edits fail alone, which minimal
combinations work, and how much each working combination improves the
program.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..gevo.edits import Edit
from ..gevo.fitness import EditSetEvaluator, WorkloadAdapter


@dataclass
class SubsetOutcome:
    """Evaluation of one subset of the epistatic edits."""

    keys: FrozenSet
    labels: Tuple[str, ...]
    valid: bool
    runtime: float
    improvement: float

    @property
    def size(self) -> int:
        return len(self.keys)


@dataclass
class SubsetAnalysis:
    """Outcome of the exhaustive subset sweep."""

    edits: List[Edit]
    labels: Dict[Tuple, str]
    baseline_runtime: float
    outcomes: List[SubsetOutcome] = field(default_factory=list)
    evaluations: int = 0

    # -- queries -----------------------------------------------------------------------
    def outcome_for(self, labels: Sequence[str]) -> Optional[SubsetOutcome]:
        wanted = frozenset(self._key_for_label(label) for label in labels)
        for outcome in self.outcomes:
            if outcome.keys == wanted:
                return outcome
        return None

    def _key_for_label(self, label: str) -> Tuple:
        for key, known in self.labels.items():
            if known == label:
                return key
        raise KeyError(f"no edit labelled {label!r}")

    def failing_singletons(self) -> List[str]:
        """Labels of edits that fail when applied alone (e.g. edits 5, 8, 10)."""
        return [next(iter(outcome.labels)) for outcome in self.outcomes
                if outcome.size == 1 and not outcome.valid]

    def best_subset(self) -> Optional[SubsetOutcome]:
        valid = [outcome for outcome in self.outcomes if outcome.valid]
        if not valid:
            return None
        return max(valid, key=lambda outcome: outcome.improvement)

    def minimal_working_supersets(self, label: str) -> List[SubsetOutcome]:
        """Smallest valid subsets containing the edit *label* (its dependency closure)."""
        key = self._key_for_label(label)
        containing = [outcome for outcome in self.outcomes
                      if outcome.valid and key in outcome.keys]
        if not containing:
            return []
        smallest = min(outcome.size for outcome in containing)
        return [outcome for outcome in containing if outcome.size == smallest]

    def dependencies(self) -> Dict[str, List[str]]:
        """For each edit that fails alone, the other edits it needs to function.

        The dependency set of an edit is the intersection of all minimal
        valid subsets containing it, minus the edit itself -- the relation
        drawn as arrows in Figure 7.
        """
        result: Dict[str, List[str]] = {}
        for key, label in self.labels.items():
            singleton = next((outcome for outcome in self.outcomes
                              if outcome.keys == frozenset([key])), None)
            if singleton is not None and singleton.valid:
                continue
            minimal = self.minimal_working_supersets(label)
            if not minimal:
                result[label] = []
                continue
            required = set.intersection(*[set(outcome.keys) for outcome in minimal])
            required.discard(key)
            result[label] = sorted(self.labels[dep] for dep in required)
        return result


def exhaustive_subset_analysis(adapter: WorkloadAdapter, edits: Sequence[Edit],
                               labels: Optional[Sequence[str]] = None,
                               max_edits: int = 16,
                               engine=None) -> SubsetAnalysis:
    """Evaluate every non-empty subset of *edits* (2^n - 1 evaluations).

    The paper notes this is feasible only because the epistatic sets are
    small ("roughly twenty edits"); ``max_edits`` guards against accidental
    exponential blow-ups.  The subsets are submitted as one batch, so an
    engine with a process-pool executor (pass *engine*) evaluates the
    whole grid concurrently.
    """
    edits = list(edits)
    if len(edits) > max_edits:
        raise ValueError(
            f"exhaustive subset analysis over {len(edits)} edits would need "
            f"2^{len(edits)} evaluations; raise max_edits explicitly if you mean it")
    if labels is None:
        labels = [f"e{index}" for index in range(len(edits))]
    if len(labels) != len(edits):
        raise ValueError("labels and edits must have the same length")
    label_map = {edit.key(): label for edit, label in zip(edits, labels)}

    evaluator = EditSetEvaluator(adapter, edits, engine=engine)
    baseline = evaluator.baseline_fitness()
    analysis = SubsetAnalysis(edits=edits, labels=label_map, baseline_runtime=baseline)

    # The whole sweep is one embarrassingly parallel grid: evaluate every
    # subset in a single batch so a pool-backed engine saturates all cores.
    combinations: List[Tuple[Edit, ...]] = []
    for size in range(1, len(edits) + 1):
        combinations.extend(itertools.combinations(edits, size))
    results = evaluator.results([list(combination) for combination in combinations])

    for combination, result in zip(combinations, results):
        runtime = result.fitness
        improvement = 0.0
        if result.valid and math.isfinite(runtime) and runtime > 0:
            improvement = (baseline - runtime) / baseline
        analysis.outcomes.append(SubsetOutcome(
            keys=frozenset(edit.key() for edit in combination),
            labels=tuple(label_map[edit.key()] for edit in combination),
            valid=result.valid,
            runtime=runtime,
            improvement=improvement,
        ))
    analysis.evaluations = evaluator.evaluations
    return analysis
