"""The SQLite cache tier: round trips, incremental flushes, JSON import."""

import json
import sqlite3

from repro.gevo.fitness import CaseResult, FitnessResult
from repro.runtime import CacheKey, FitnessCache, SqliteCacheStore, result_to_dict
from repro.runtime.cache import CACHE_FORMAT_VERSION
from repro.runtime.sqlite_store import SQLITE_MAGIC


def _key(tag="abc"):
    return CacheKey("toy", "P100", tag)


def _result(runtime=1.0):
    return FitnessResult.from_cases([CaseResult("c", True, runtime)])


class TestSqliteRoundTrip:
    def test_persist_reload_hit(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        first = FitnessCache(path)
        first.put(_key(), _result(4.5))
        assert first.save()
        first.close()

        second = FitnessCache(path)
        assert isinstance(second.store, SqliteCacheStore)
        assert len(second) == 1
        assert second.stats.loaded == 1
        assert second.get(_key()).runtime_ms == 4.5
        second.close()

    def test_file_is_a_real_sqlite_database(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        cache.close()
        with open(path, "rb") as handle:
            assert handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC

    def test_wal_mode_is_enabled(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        cache.save()
        mode = cache.store._connection().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        cache.close()

    def test_overwritten_entry_persists(self, tmp_path):
        # The put()-marks-dirty regression, through the SQLite tier.
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result(4.5))
        cache.save()
        cache.put(_key(), _result(9.0))
        assert cache.save()
        cache.close()
        assert FitnessCache(path).peek(_key()).runtime_ms == 9.0

    def test_concurrent_reader_sees_committed_entries(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        writer = FitnessCache(path)
        writer.put(_key("one"), _result(1.0))
        writer.save()
        # A second, independent connection (another process in real use)
        # reads while the writer is still open.
        reader = FitnessCache(path)
        assert reader.peek(_key("one")).runtime_ms == 1.0
        reader.close()
        writer.close()


class TestIncrementalFlush:
    def test_flush_touches_only_dirty_entries(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        for index in range(50):
            cache.put(_key(f"k{index}"), _result(float(index)))
        assert cache.save()
        assert cache.store.last_flush_count == 50

        cache.put(_key("fresh"), _result(99.0))
        assert cache.save()
        # No full-table rewrite: only the one new row was upserted.
        assert cache.store.last_flush_count == 1
        cache.close()
        assert len(FitnessCache(path)) == 51

    def test_clean_save_is_noop(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        assert cache.save()
        assert not cache.save()
        cache.close()

    def test_sqlite_store_flushes_without_rate_limit(self, tmp_path):
        # maybe_save() (the engine's per-batch flush) is not rate-limited:
        # every hot-path call lands on disk.
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key("a"), _result(1.0))
        assert cache.maybe_save()
        cache.put(_key("b"), _result(2.0))
        assert cache.maybe_save()
        cache.close()
        assert len(FitnessCache(path)) == 2


def _write_json_cache(path, results):
    """A version-1 JSON cache document mapping each CacheKey to a result."""
    document = {"version": CACHE_FORMAT_VERSION,
                "entries": {key.to_string(): result_to_dict(result)
                            for key, result in results.items()}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return document["entries"]


class TestJsonMigration:
    def _json_cache(self, path, entries=3):
        _write_json_cache(path, {_key(f"k{index}"): _result(float(index))
                                 for index in range(entries)})

    def test_json_cache_migrates_to_sqlite_on_first_open(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._json_cache(path)

        migrated = FitnessCache(path)
        assert len(migrated) == 3
        assert migrated.peek(_key("k1")).runtime_ms == 1.0
        migrated.close()
        # The file on disk is now a SQLite database, not JSON.
        with open(path, "rb") as handle:
            assert handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC

    def test_migration_happens_once(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._json_cache(path)
        first = FitnessCache(path)
        first.put(_key("extra"), _result(7.0))
        first.close()
        # Re-open: plain SQLite now, nothing re-migrated or lost.
        second = FitnessCache(path)
        assert len(second) == 4
        second.close()

    def test_json_and_sqlite_tiers_agree_on_keys(self, tmp_path):
        # The same CacheKey string indexes both formats: entries of a JSON
        # document are found under identical keys after migration.
        path = str(tmp_path / "cache.json")
        keys = [CacheKey("wl|odd", "V100", f"hash{i}") for i in range(5)]
        exported = _write_json_cache(
            path, {key: _result(float(index)) for index, key in enumerate(keys)})

        sqlite_cache = FitnessCache(path)
        assert sqlite_cache.export_entries() == exported
        sqlite_cache.close()

    def test_incompatible_json_version_not_migrated(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": {"a|b|c": {}}}))
        cache = FitnessCache(str(path))
        assert len(cache) == 0
        cache.close()


class TestCorruption:
    def test_truncated_database_degrades_to_empty(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        cache.close()
        with open(path, "r+b") as handle:
            handle.truncate(30)  # keep part of the magic, lose the rest

        recovered = FitnessCache(path)
        assert len(recovered) == 0
        recovered.put(_key("new"), _result(2.0))
        assert recovered.save()
        recovered.close()
        assert len(FitnessCache(path)) == 1

    def test_garbage_file_degrades_to_empty_but_is_preserved(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        original_text = "this is neither sqlite nor a json cache {"
        path.write_text(original_text)
        cache = FitnessCache(str(path))
        assert len(cache) == 0
        cache.put(_key(), _result())
        cache.save()
        cache.close()
        assert len(FitnessCache(str(path))) == 1
        # The unusable file was set aside, not destroyed: a mistyped
        # --cache path never deletes the file it pointed at.
        assert (tmp_path / "cache.sqlite.corrupt").read_text() == original_text

    def test_schema_damage_degrades_to_empty(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        cache.close()
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE entries")
        conn.commit()
        conn.close()
        recovered = FitnessCache(path)
        assert len(recovered) == 0
        recovered.close()

    def test_version_mismatch_clears_stale_entries(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = FitnessCache(path)
        cache.put(_key(), _result())
        cache.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = ? WHERE key = 'version'",
                     (str(CACHE_FORMAT_VERSION + 1),))
        conn.commit()
        conn.close()
        # Incompatible caches are stale data: start over, don't crash.
        reopened = FitnessCache(path)
        assert len(reopened) == 0
        reopened.close()
