"""EvaluationEngine: batching, dedup, cache accounting and serial/parallel parity."""

import pytest

from repro.gevo import GevoConfig, GevoSearch
from repro.gevo.fitness import EditSetEvaluator
from repro.runtime import (
    EvaluationEngine,
    FitnessCache,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.workloads import ToyWorkloadAdapter, toy_discovered_edits


@pytest.fixture(scope="module")
def adapter():
    return ToyWorkloadAdapter(elements=64)


@pytest.fixture(scope="module")
def edits(adapter):
    return toy_discovered_edits(adapter.kernel)


class TestEngineBasics:
    def test_single_evaluation_matches_adapter(self, adapter):
        engine = EvaluationEngine(adapter)
        direct = adapter.baseline()
        via_engine = engine.baseline()
        assert via_engine.valid == direct.valid
        assert via_engine.runtime_ms == direct.runtime_ms

    def test_batch_returns_results_in_input_order(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        sets = [[], [edits[0]], [], [edits[0], edits[1]]]
        results = engine.evaluate_many(sets)
        assert len(results) == 4
        assert results[0].runtime_ms == results[2].runtime_ms
        assert results[3].runtime_ms < results[0].runtime_ms

    def test_batch_deduplicates_identical_sets(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        engine.evaluate_many([[edits[0]], [edits[0]], [edits[0]]])
        assert engine.evaluations == 1

    def test_permuted_edit_lists_hit_the_cache(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        engine.evaluate([edits[0], edits[1], edits[2]])
        before = engine.evaluations
        engine.evaluate([edits[2], edits[0], edits[1]])
        assert engine.evaluations == before
        assert engine.cache.hits >= 1

    def test_workload_and_arch_namespace_keys(self, adapter):
        p100 = EvaluationEngine(adapter)
        assert p100.arch_name == "P100"
        assert "toy" in p100.workload_id

    def test_shared_cache_across_engines(self, adapter, edits):
        cache = FitnessCache()
        first = EvaluationEngine(adapter, cache=cache)
        first.evaluate([edits[0]])
        second = EvaluationEngine(adapter, cache=cache)
        second.evaluate([edits[0]])
        assert second.evaluations == 0


class TestExecutorSelection:
    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(3)
        assert isinstance(parallel, ParallelExecutor) and parallel.jobs == 3
        parallel.close()

    def test_jobs_zero_means_all_cores(self):
        executor = make_executor(0)
        assert isinstance(executor, ParallelExecutor) and executor.jobs >= 1
        executor.close()


class TestSerialParallelParity:
    def test_parallel_results_bitwise_identical_to_serial(self, adapter, edits):
        sets = [[], [edits[0]], [edits[1]], [edits[2]],
                [edits[0], edits[1]], [edits[0], edits[2]],
                [edits[1], edits[2]], list(edits)]
        serial = EvaluationEngine(adapter).evaluate_many(sets)
        with EvaluationEngine(adapter, executor=ParallelExecutor(2)) as engine:
            parallel = engine.evaluate_many(sets)
        for expected, actual in zip(serial, parallel):
            assert actual.valid == expected.valid
            assert actual.runtime_ms == expected.runtime_ms  # bitwise: deterministic sim
            assert [(c.name, c.passed, c.runtime_ms) for c in actual.cases] == \
                   [(c.name, c.passed, c.runtime_ms) for c in expected.cases]

    def test_parallel_search_identical_to_serial(self, adapter):
        config = GevoConfig.quick(seed=21, population_size=8, generations=4)
        serial_result = GevoSearch(adapter, config).run()
        with EvaluationEngine(adapter, executor=ParallelExecutor(4)) as engine:
            parallel_result = GevoSearch(adapter, config, engine=engine).run()
        assert (serial_result.history.best_fitness_series()
                == parallel_result.history.best_fitness_series())
        assert serial_result.best.edit_keys() == parallel_result.best.edit_keys()

    def test_adept_v1_batch_on_a_process_pool_matches_serial(self, adept_v1_adapter):
        from repro.workloads.adept import adept_v1_edit, adept_v1_independent_edits

        kernel = adept_v1_adapter.kernel
        independent = list(adept_v1_independent_edits(kernel).values())
        sets = [[], [adept_v1_edit(kernel, 6)], independent[:1], independent]
        serial = EvaluationEngine(adept_v1_adapter).evaluate_many(sets)
        with EvaluationEngine(adept_v1_adapter,
                              executor=ParallelExecutor(2)) as engine:
            assert engine.evaluate_many(sets) == serial


class TestEvaluatorIntegration:
    def test_edit_set_evaluator_shares_engine_cache(self, adapter, edits):
        engine = EvaluationEngine(adapter)
        first = EditSetEvaluator(adapter, edits, engine=engine)
        first.fitness(edits)
        second = EditSetEvaluator(adapter, edits, engine=engine)
        before = engine.evaluations
        second.fitness(edits)
        assert engine.evaluations == before

    def test_engine_stats_summary(self, adapter):
        engine = EvaluationEngine(adapter)
        engine.baseline()
        assert engine.evaluations == 1 and engine.executor.name == "serial"
        assert engine.summary().startswith(
            "1 evaluations, 0 cache hits (serial, jobs=1, 1 cached, ")
