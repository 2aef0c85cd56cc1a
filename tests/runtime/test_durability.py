"""Crash durability: an interrupted write never damages the previous state.

A cache flush can die at any point (OOM kill, SIGKILL, full disk, power
loss).  The contract is that whatever was loadable before the
interrupted flush is still loadable after it: the SQLite tier gets this
from transactional upserts, checkpoints from write-to-temp + atomic
rename.  These tests inject failures mid-write and check the survivors.
"""

import os

import pytest

from repro.gevo.fitness import CaseResult, FitnessResult
from repro.runtime import CacheKey, FitnessCache
import repro.runtime.cache as cache_module
import repro.runtime.sqlite_store as sqlite_module


def _key(tag="abc"):
    return CacheKey("toy", "P100", tag)


def _result(runtime=1.0):
    return FitnessResult.from_cases([CaseResult("c", True, runtime)])


class _Boom(RuntimeError):
    pass


class TestSqliteFlushCrash:
    def _crash_on_second_serialisation(self, monkeypatch):
        original = sqlite_module.result_to_dict
        calls = {"n": 0}

        def exploding(result):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise _Boom("crashed mid-flush")
            return original(result)

        monkeypatch.setattr(sqlite_module, "result_to_dict", exploding)

    def test_committed_rows_survive_a_crashed_flush(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key("old"), _result(1.5))
        assert cache.save()

        cache.put(_key("a"), _result(2.0))
        cache.put(_key("b"), _result(3.0))
        self._crash_on_second_serialisation(monkeypatch)
        with pytest.raises(_Boom):
            cache.save()
        monkeypatch.undo()
        cache.store.close()

        # The aborted transaction rolled back; the committed row survives.
        survivor = FitnessCache(path)
        assert survivor.peek(_key("old")).runtime_ms == 1.5
        survivor.close()

    def test_aborted_transaction_is_all_or_nothing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key("a"), _result(2.0))
        cache.put(_key("b"), _result(3.0))
        self._crash_on_second_serialisation(monkeypatch)
        with pytest.raises(_Boom):
            cache.save()
        monkeypatch.undo()
        cache.store.close()

        # Neither dirty entry was committed: no torn flush.
        survivor = FitnessCache(path)
        assert len(survivor) == 0
        survivor.close()

    def test_flush_can_be_retried_after_the_crash(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key("a"), _result(2.0))
        cache.put(_key("b"), _result(3.0))
        self._crash_on_second_serialisation(monkeypatch)
        with pytest.raises(_Boom):
            cache.save()
        monkeypatch.undo()
        assert cache.save()  # both entries still dirty, flushed together now
        cache.close()
        assert len(FitnessCache(path)) == 2


class TestCheckpointWriteCrash:
    def test_checkpoint_file_survives_a_crashed_save(self, tmp_path, monkeypatch):
        from repro.gevo import GevoConfig, GevoSearch
        from repro.runtime import SearchCheckpoint
        import repro.runtime.checkpoint as checkpoint_module
        from repro.workloads import ToyWorkloadAdapter

        path = str(tmp_path / "ckpt.json")
        config = GevoConfig.quick(seed=5, population_size=4, generations=2)
        GevoSearch(ToyWorkloadAdapter(elements=64), config).run(checkpoint_path=path)
        before = SearchCheckpoint.load(path)

        def exploding_dump(document, handle, **kwargs):
            handle.write("{")
            raise _Boom("crashed mid-write")

        monkeypatch.setattr(checkpoint_module.json, "dump", exploding_dump)
        with pytest.raises(_Boom):
            before.save(path)
        monkeypatch.undo()

        after = SearchCheckpoint.load(path)  # still the intact previous file
        assert after.generation == before.generation
        assert after.cache_entries == before.cache_entries


class TestFsyncPolicy:
    def _record_fsyncs(self, monkeypatch):
        synced = []
        original = os.fsync
        monkeypatch.setattr(cache_module.os, "fsync",
                            lambda fd: (synced.append(fd), original(fd))[1])
        return synced

    def test_durable_write_fsyncs_data_and_directory(self, tmp_path, monkeypatch):
        # Checkpoints must survive power loss, not just process death:
        # one fsync pins the temp file's data blocks before the rename,
        # a second pins the directory entry after it.
        synced = self._record_fsyncs(monkeypatch)
        cache_module.atomic_write_json(str(tmp_path / "ckpt.json"),
                                       {"k": "v"}, durable=True)
        assert len(synced) == 2

    def test_cache_flush_skips_the_fsyncs(self, tmp_path, monkeypatch):
        # Non-durable writes (sweep reports, telemetry files) keep
        # rename-atomicity but pay no fsync.
        synced = self._record_fsyncs(monkeypatch)
        cache_module.atomic_write_json(str(tmp_path / "cache.json"), {"k": "v"})
        assert synced == []

    def test_checkpoint_save_is_durable(self, tmp_path, monkeypatch):
        from repro.runtime import SearchCheckpoint

        synced = self._record_fsyncs(monkeypatch)
        checkpoint = SearchCheckpoint(
            algorithm="gevo", workload_id="toy", config={}, rng_state=[],
            evaluations=0, history={}, baseline_runtime=1.0)
        checkpoint.save(str(tmp_path / "ckpt.json"))
        assert len(synced) == 2
