"""Canonical keys and the persistent fitness cache."""

import math

import pytest

from repro.gevo.edits import InstructionDelete, OperandReplace
from repro.gevo.fitness import CaseResult, FitnessResult
from repro.ir import Const, Reg
from repro.runtime import (
    CacheKey,
    FitnessCache,
    canonical_edit_hash,
    canonical_edit_key,
    result_from_dict,
    result_to_dict,
)


def _edits():
    return [
        InstructionDelete(7),
        OperandReplace(9, 1, Reg("gid")),
        InstructionDelete(12),
    ]


class TestCanonicalKeys:
    def test_permutations_share_one_key(self):
        edits = _edits()
        permuted = [edits[2], edits[0], edits[1]]
        assert canonical_edit_key(edits) == canonical_edit_key(permuted)
        assert canonical_edit_hash(edits) == canonical_edit_hash(permuted)

    def test_different_sets_differ(self):
        assert canonical_edit_hash(_edits()) != canonical_edit_hash(_edits()[:2])
        assert canonical_edit_hash([]) != canonical_edit_hash(_edits())

    def test_duplicates_are_not_collapsed(self):
        once = [InstructionDelete(7)]
        twice = [InstructionDelete(7), InstructionDelete(7)]
        assert canonical_edit_hash(once) != canonical_edit_hash(twice)

    def test_heterogeneous_key_shapes_sort(self):
        # Mixed kinds and operand value types must not break the ordering.
        edits = [OperandReplace(3, 0, Const(2.5)), OperandReplace(3, 0, Reg("tid")),
                 InstructionDelete(3)]
        assert canonical_edit_key(edits) == canonical_edit_key(list(reversed(edits)))


class TestResultSerialisation:
    def test_round_trip(self):
        result = FitnessResult.from_cases([
            CaseResult("a", True, 1.25, ""),
            CaseResult("b", True, 2.75, "note"),
        ])
        restored = result_from_dict(result_to_dict(result))
        assert restored.valid == result.valid
        assert restored.runtime_ms == result.runtime_ms
        assert [c.name for c in restored.cases] == ["a", "b"]

    def test_invalid_result_round_trips_inf(self):
        result = FitnessResult.invalid("kernel trap")
        restored = result_from_dict(result_to_dict(result))
        assert not restored.valid
        assert math.isinf(restored.runtime_ms)
        assert restored.cases[0].message == "kernel trap"


class TestFitnessCache:
    def _key(self, tag="abc"):
        return CacheKey("toy", "P100", tag)

    def test_memory_tier_hits_and_misses(self):
        cache = FitnessCache()
        key = self._key()
        assert cache.get(key) is None
        cache.put(key, FitnessResult.from_cases([CaseResult("c", True, 1.0)]))
        assert cache.get(key).valid
        assert cache.hits == 1 and cache.misses == 1

    def test_persist_reload_hit(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = FitnessCache(path)
        first.put(self._key(), FitnessResult.from_cases([CaseResult("c", True, 4.5)]))
        assert first.save()

        second = FitnessCache(path)
        assert len(second) == 1
        assert second.loaded == 1
        result = second.get(self._key())
        assert result is not None and result.runtime_ms == 4.5
        assert second.hits == 1

    def test_save_is_noop_when_clean(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = FitnessCache(path)
        assert not cache.save()  # nothing stored yet
        cache.put(self._key(), FitnessResult.invalid("boom"))
        assert cache.save()
        assert not cache.save()  # unchanged since last write

    def test_incompatible_version_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 999, "entries": {"a|b|c": {}}}')
        cache = FitnessCache(str(path))
        assert len(cache) == 0

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("not json{")
        cache = FitnessCache(str(path))
        assert len(cache) == 0
        cache.put(self._key(), FitnessResult.invalid("x"))
        assert cache.save()  # into a fresh database; the bad file is set aside
        assert len(FitnessCache(str(path))) == 1

    def test_key_string_round_trip_with_pipes_in_workload(self):
        key = CacheKey("toy|variant", "P100", "deadbeef")
        assert CacheKey.from_string(key.to_string()) == key

    def test_overwriting_an_entry_with_a_changed_result_is_persisted(self, tmp_path):
        # Regression: put() used to mark the cache dirty only for *new*
        # keys, so overwriting an existing entry with a different result
        # was silently dropped at the next save.
        path = str(tmp_path / "cache.json")
        cache = FitnessCache(path)
        key = self._key()
        cache.put(key, FitnessResult.from_cases([CaseResult("c", True, 4.5)]))
        assert cache.save()

        cache.put(key, FitnessResult.from_cases([CaseResult("c", True, 9.0)]))
        assert cache.save()  # the changed entry is dirty again

        reloaded = FitnessCache(path)
        assert reloaded.peek(key).runtime_ms == 9.0

    def test_overwriting_with_an_identical_result_stays_clean(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = FitnessCache(path)
        key = self._key()
        result = FitnessResult.from_cases([CaseResult("c", True, 4.5)])
        cache.put(key, result)
        assert cache.save()
        cache.put(key, FitnessResult.from_cases([CaseResult("c", True, 4.5)]))
        assert not cache.save()  # equal value: nothing new to persist
