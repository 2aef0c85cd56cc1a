"""Executor selection, thread safety of shared originals, and fault handling.

Two contracts from the ``Executor`` docstring are pinned here:

* **parity** -- evaluations sharing one original module (from threads,
  or through the process pool's single-item shortcut) return bit-for-bit
  the results of :class:`SerialExecutor`;
* **clean failure** -- a worker that raises (or a worker process that
  dies) mid-batch surfaces one :class:`~repro.errors.ExecutorError`
  (or the original exception, for the serial path), the process pool
  cancels queued siblings, no partial results reach the cache, and the
  executor stays usable for the next batch.
"""

import os
import time

import pytest

from repro.errors import ExecutorError
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


class FailingToyAdapter(ToyWorkloadAdapter):
    """Raises when the marker instruction has been edited out.

    ``delay`` slows down the *healthy* evaluations so a fast failure can
    demonstrably cancel queued siblings in the process pool.  With a
    ``log_path`` every evaluation appends one line to that file, which
    counts evaluations across worker processes.
    """

    def __init__(self, fail_uid, delay=0.0, log_path=None, **kwargs):
        super().__init__(**kwargs)
        self.fail_uid = fail_uid
        self.delay = delay
        self.log_path = log_path

    def evaluate(self, module):
        if self.log_path is not None:
            with open(self.log_path, "a", encoding="utf-8") as handle:
                handle.write("evaluated\n")
        present = {inst.uid for inst in module.instructions()}
        if self.fail_uid not in present:
            raise RuntimeError("injected failure: marker instruction deleted")
        if self.delay:
            time.sleep(self.delay)
        return super().evaluate(module)


class DyingToyAdapter(ToyWorkloadAdapter):
    """Hard-kills the evaluating process: simulates an OOM-killed worker."""

    def evaluate(self, module):
        os._exit(13)


class TestParity:
    """Bit-for-bit equality with the serial executor."""

    def test_threads_sharing_a_cold_original_match_serial(self):
        """Variants borrow every kernel their edits do not write, so threads
        race on the original's decode cache and first-call JIT slots (a
        partial final warp adds masked kernels); each thread's results must
        still equal a serial evaluation on a separate build."""
        import sys
        import threading

        from repro.gevo import apply_edits
        from repro.gevo.edits import InstructionDelete

        def evaluate_all(adapter, order):
            # Deletes of absent uids are skipped: those variants are pure forks.
            edits = toy_discovered_edits(adapter.kernel)
            sets = [[InstructionDelete(-k)] for k in range(1, 7)] + [[e] for e in edits]
            original = adapter.original_module()
            results = {}
            for index in order(range(len(sets))):
                result = adapter.evaluate(apply_edits(original, sets[index]).module)
                results[index] = (result.valid, result.runtime_ms, [
                    (case.name, case.passed, case.runtime_ms, case.message)
                    for case in result.cases])
            return results

        expected = evaluate_all(ToyWorkloadAdapter(elements=200), list)
        shared = ToyWorkloadAdapter(elements=200)  # nothing decoded yet
        outcomes, errors = [], []

        def worker(reverse):
            try:
                outcomes.append(evaluate_all(
                    shared, lambda indices: sorted(indices, reverse=reverse)))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n % 2 == 1,))
                   for n in range(6)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert outcomes == [expected] * len(threads)

    def test_single_item_batches_stay_serial(self, adapter):
        # The <=1 fast path must not regress results either, and it never
        # starts a worker.
        baseline = EvaluationEngine(adapter).baseline()
        executor = ParallelExecutor(4)
        try:
            assert EvaluationEngine(adapter, executor=executor).baseline() \
                   == baseline
            assert executor._pool is None
        finally:
            executor.close()


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        assert isinstance(make_executor(1, "auto"), SerialExecutor)
        assert isinstance(make_executor(3, "serial"), SerialExecutor)
        process = make_executor(3, "process")
        assert isinstance(process, ParallelExecutor) and process.jobs == 3

    def test_zero_jobs_pick_a_default(self):
        assert make_executor(0).jobs >= 1
        assert make_executor(0, "process").jobs >= 1

    def test_unknown_kind_is_an_error(self):
        for kind in ("quantum", "async", "sharded"):
            with pytest.raises(ValueError):
                make_executor(2, kind)


class TestFaultHandling:
    def _failing_adapter(self, delay=0.0, log_path=None):
        # The marker uid must come from this adapter's own kernel build
        # (instruction uids are unique per build).
        adapter = FailingToyAdapter(None, delay=delay, log_path=log_path,
                                    elements=64)
        adapter.fail_uid = adapter.kernel.edit_targets["useless_barrier"]
        return adapter

    def _batch(self, adapter, healthy=6):
        """One fast-failing variant followed by *healthy* slow ones."""
        from repro.gevo.edits import InstructionDelete

        failing = [InstructionDelete(adapter.fail_uid)]
        others = [uid for uid in adapter.kernel.edit_targets.values()
                  if uid != adapter.fail_uid]
        sets = [failing]
        for index in range(healthy):
            sets.append([InstructionDelete(others[index % len(others)])] * (index + 1))
        return sets

    def test_worker_exception_surfaces_and_cancels_siblings(self, tmp_path):
        log_path = str(tmp_path / "evaluated.log")
        adapter = self._failing_adapter(delay=0.2, log_path=log_path)
        sets = self._batch(adapter, healthy=20)
        executor = ParallelExecutor(2)
        try:
            with pytest.raises(ExecutorError, match="injected failure"):
                EvaluationEngine(adapter, executor=executor).evaluate_many(sets)
        finally:
            executor.close()  # waits for the tasks already handed to workers
        # The failure fired fast; with 2 workers and 20 slow siblings
        # queued, cancellation must have stopped at least the tail of the
        # queue.
        with open(log_path, encoding="utf-8") as handle:
            assert len(handle.readlines()) < len(sets)

    def test_process_failure_does_not_corrupt_the_cache(self, tmp_path):
        adapter = self._failing_adapter()
        good_sets = self._batch(adapter)[1:]
        cache_path = str(tmp_path / "cache.sqlite")
        engine = EvaluationEngine(adapter, executor=ParallelExecutor(2),
                                  cache=FitnessCache(cache_path))
        engine.evaluate_many(good_sets)
        persisted_before = len(FitnessCache(cache_path))
        # The failing batch needs >1 *uncached* set to reach the pool (a
        # lone pending item takes the serial shortcut); pair the failing
        # variant with a fresh healthy combination.
        from repro.gevo.edits import InstructionDelete

        others = [uid for uid in adapter.kernel.edit_targets.values()
                  if uid != adapter.fail_uid]
        failing_batch = [[InstructionDelete(adapter.fail_uid)],
                         [InstructionDelete(others[0]), InstructionDelete(others[1])]]
        with pytest.raises(ExecutorError):
            engine.evaluate_many(failing_batch)
        engine.close()
        # Nothing from the failed batch -- not even its healthy siblings --
        # was stored; the previously persisted entries are intact, and a
        # fresh engine over the same cache re-serves them without
        # re-simulation.
        assert len(FitnessCache(cache_path)) == persisted_before
        healthy = ToyWorkloadAdapter(elements=64)
        with EvaluationEngine(healthy, executor=ParallelExecutor(2),
                              cache=FitnessCache(cache_path)) as fresh:
            fresh.evaluate_many(good_sets)
            assert fresh.evaluations == 0

    def test_dead_worker_process_surfaces_executor_error_and_pool_resets(self):
        dying = DyingToyAdapter(elements=64)
        sets = [[edit] for edit in toy_discovered_edits(dying.kernel)]
        executor = ParallelExecutor(2)
        try:
            with pytest.raises(ExecutorError, match="worker process died"):
                EvaluationEngine(dying, executor=executor).evaluate_many(sets)
            # The executor recovered: the same instance drives a healthy
            # adapter through a fresh pool.
            healthy = ToyWorkloadAdapter(elements=64)
            expected = EvaluationEngine(healthy).evaluate_many(sets)
            results = EvaluationEngine(healthy, executor=executor).evaluate_many(sets)
            assert [r.runtime_ms for r in results] == [r.runtime_ms for r in expected]
        finally:
            executor.close()
