"""Additional :class:`~repro.runtime.engine.Executor` backends.

The engine ships with two execution strategies (in
:mod:`repro.runtime.engine`): :class:`SerialExecutor` and the
process-pool :class:`ParallelExecutor`.  This module adds the two the
ROADMAP calls for next:

* :class:`AsyncExecutor` -- in-process asyncio with bounded concurrency.
  Evaluations run on a private thread pool behind an
  ``asyncio.Semaphore``, so there is **no pickling overhead**: the
  adapter and the original module are shared by reference, which makes
  this the right executor for small populations and cheap workloads
  where :class:`ParallelExecutor`'s per-task IPC dominates.  Safe
  because every evaluation forks the module
  (:func:`~repro.gevo.genome.apply_edits`), which never writes the
  original, and :meth:`~repro.gpu.simulator.GpuDevice.launch` keeps all
  mutable launch state local.  The shared structures evaluations do
  write -- the decode caches of the original's kernels and their JIT
  kernel slots (:mod:`repro.gpu.jitted`) -- only ever receive identical
  decodings and kernels, so a race costs a duplicate build, never a
  result.  When one evaluation raises, in-flight siblings are
  cancelled (queued tasks never start; already-running threads finish
  but their results are discarded) and the batch surfaces one
  :class:`~repro.errors.ExecutorError`.

* :class:`ShardedExecutor` -- partitions the batch into N *lanes* keyed
  by the canonical edit hash (:func:`~repro.runtime.cache.shard_index`,
  the same partition function the
  :class:`~repro.runtime.sharded_store.ShardedCacheStore` uses for its
  SQLite shards, so a sweep leg's evaluations and its cache rows shard
  identically).  Each lane runs its slice serially on its own thread;
  results reassemble in input order.

Both executors are **bit-for-bit equivalent** to
:class:`SerialExecutor`: the simulated GPU is deterministic and results
are returned in input order regardless of completion order.  The parity
battery in ``tests/runtime/test_executors.py`` pins that contract, the
fault-handling tests pin the clean-error guarantee.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence

from ..errors import ExecutorError
from ..gevo.edits import Edit
from ..gevo.fitness import FitnessResult, WorkloadAdapter
from .cache import canonical_edit_hash, shard_index
from .engine import Executor, SerialExecutor, _evaluate_one, default_jobs

__all__ = ["AsyncExecutor", "ShardedExecutor"]


class AsyncExecutor(Executor):
    """In-process asyncio executor with bounded concurrency.

    ``jobs`` bounds how many evaluations are in flight at once
    (``jobs < 1`` selects :func:`~repro.runtime.engine.default_jobs`).
    Each batch runs on a fresh event loop and a private thread pool that
    is torn down with the batch, so the executor holds no resources
    between batches and :meth:`close` is trivially idempotent.
    """

    name = "async"

    def __init__(self, jobs: int = 0):
        self.jobs = jobs if jobs >= 1 else default_jobs()

    def _run_batch(self, adapter: WorkloadAdapter, original,
                   edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        if len(edit_sets) <= 1 or self.jobs == 1:
            # A single evaluation gains nothing from the event loop.
            return SerialExecutor().run_batch(adapter, original, edit_sets)
        return asyncio.run(self._run_batch_async(adapter, original, edit_sets))

    async def _run_batch_async(self, adapter, original, edit_sets):
        loop = asyncio.get_running_loop()
        semaphore = asyncio.Semaphore(self.jobs)
        pool = ThreadPoolExecutor(max_workers=self.jobs,
                                  thread_name_prefix="repro-async-eval")

        async def evaluate(edits):
            async with semaphore:
                return await loop.run_in_executor(
                    pool, _evaluate_one, adapter, original, edits)

        tasks = [loop.create_task(evaluate(edits)) for edits in edit_sets]
        try:
            # gather() propagates the first failure; the except arm then
            # cancels every sibling (tasks still waiting on the semaphore
            # never dispatch) and drains them so nothing leaks.
            return list(await asyncio.gather(*tasks))
        except BaseException as exc:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if isinstance(exc, Exception):
                raise ExecutorError(
                    f"async evaluation batch failed: {exc}") from exc
            raise  # KeyboardInterrupt and friends propagate unwrapped.
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


class ShardedExecutor(Executor):
    """Hash-partitioned lanes: shard the batch by canonical edit hash.

    The partition is *content-addressed*: an edit set always lands on
    ``shard_index(canonical_edit_hash(edits), shards)`` regardless of its
    position in the batch, mirroring how the sharded cache store routes
    the same key to the same SQLite shard.  Lanes execute concurrently
    (one thread per non-empty lane), each lane serially in partition
    order, and results come back in input order -- deterministic and
    bit-for-bit equal to :class:`SerialExecutor`.
    """

    name = "sharded"

    def __init__(self, shards: int = 0):
        self.shards = shards if shards >= 1 else default_jobs()

    @property
    def jobs(self) -> int:
        """Lane count (reported as ``jobs`` in :class:`EngineStats`)."""
        return self.shards

    def _run_batch(self, adapter: WorkloadAdapter, original,
                   edit_sets: Sequence[Sequence[Edit]]) -> List[FitnessResult]:
        if len(edit_sets) <= 1 or self.shards == 1:
            return SerialExecutor().run_batch(adapter, original, edit_sets)

        lanes: List[List[int]] = [[] for _ in range(self.shards)]
        for index, edits in enumerate(edit_sets):
            lanes[shard_index(canonical_edit_hash(edits), self.shards)].append(index)

        results: List[FitnessResult] = [None] * len(edit_sets)  # type: ignore[list-item]

        def run_lane(indices: List[int]) -> None:
            for index in indices:
                results[index] = _evaluate_one(adapter, original, edit_sets[index])

        occupied = [lane for lane in lanes if lane]
        with ThreadPoolExecutor(max_workers=len(occupied),
                                thread_name_prefix="repro-shard-lane") as pool:
            futures = [pool.submit(run_lane, lane) for lane in occupied]
            errors = []
            for future in futures:
                try:
                    future.result()
                except Exception as exc:  # noqa: BLE001 - rewrapped below
                    errors.append(exc)
            if errors:
                raise ExecutorError(
                    f"sharded evaluation batch failed: {errors[0]}") from errors[0]
        return results
