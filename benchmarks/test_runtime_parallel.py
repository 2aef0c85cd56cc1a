"""Microbenchmark: serial vs. process-pool population evaluation.

Evaluates one GA-generation-sized batch of distinct toy-kernel variants
through the :class:`~repro.runtime.engine.EvaluationEngine`, once per
executor: :class:`SerialExecutor` and :class:`ParallelExecutor` (pool
started -- and the adapter shipped to the workers -- outside the timed
region, matching a long search where the startup cost amortises over
hundreds of generations).  Run with ``-s`` to see the comparison; the
parity of the result sets is asserted either way.

No speedup is *asserted*: the expected ratio is entirely
hardware-dependent (on a single-core CI container the two tie, with the
pool paying a small IPC tax; on an N-core workstation the parallel row
approaches N-fold).
"""

from __future__ import annotations

import pytest

from repro.gevo.edits import InstructionDelete
from repro.runtime import EvaluationEngine, FitnessCache, ParallelExecutor
from repro.workloads import ToyWorkloadAdapter

#: One scaled GA generation's worth of variants.
POPULATION = 24
JOBS = 4


def _population_edit_sets(adapter):
    """Distinct single-delete variants (padded with multi-delete combos)."""
    deletable = [inst.uid for inst in adapter.kernel.module.instructions()
                 if not inst.info.pinned]
    sets = [[InstructionDelete(uid)] for uid in deletable]
    for first in deletable:
        for second in deletable:
            if len(sets) >= POPULATION:
                return sets[:POPULATION]
            if first < second:
                sets.append([InstructionDelete(first), InstructionDelete(second)])
    return sets[:POPULATION]


@pytest.fixture(scope="module")
def adapter():
    # Large enough that one evaluation costs ~tens of milliseconds --
    # below that, process-pool IPC dominates and parallel loses.
    return ToyWorkloadAdapter(elements=16384)


@pytest.fixture(scope="module")
def edit_sets(adapter):
    return _population_edit_sets(adapter)


@pytest.fixture(scope="module")
def expected(adapter, edit_sets):
    """Reference results (computed once, outside any timed region)."""
    return EvaluationEngine(adapter).evaluate_many(edit_sets)


def _check(results, expected):
    assert [(r.valid, r.runtime_ms) for r in results] == \
           [(r.valid, r.runtime_ms) for r in expected]


def test_population_evaluation_serial(benchmark, adapter, edit_sets, expected):
    def evaluate():
        # Fresh cache each round so every variant is actually simulated.
        engine = EvaluationEngine(adapter, cache=FitnessCache())
        return engine.evaluate_many(edit_sets)

    results = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    _check(results, expected)


def test_population_evaluation_parallel(benchmark, adapter, edit_sets, expected):
    executor = ParallelExecutor(JOBS)
    try:
        # Warm-up outside the timed region: fork the pool, ship the adapter.
        executor.run_batch(adapter, adapter.original_module(), edit_sets[:JOBS])

        def evaluate():
            engine = EvaluationEngine(adapter, executor=executor,
                                      cache=FitnessCache())
            return engine.evaluate_many(edit_sets)

        results = benchmark.pedantic(evaluate, rounds=3, iterations=1)
        _check(results, expected)
    finally:
        executor.close()
