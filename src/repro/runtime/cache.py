"""Content-addressed fitness cache.

Fitness evaluation dominates the wall clock of every pipeline in this
reproduction (search, minimization, epistasis, subset sweeps), and the
same edit-sets are evaluated over and over -- within one run (elitism,
delta-debugging rounds) and across runs (re-running an experiment, or
resuming a checkpointed search).  This module provides the cache the whole
evaluation runtime shares:

* :func:`canonical_edit_key` / :func:`canonical_edit_hash` -- an
  order-insensitive identity for an edit list.  GEVO's ``f(S)`` semantics
  (Algorithms 1 and 2) treat an edit collection as a *multiset*: the
  replay order is normalised by the evaluators (discovery order for
  ``EditSetEvaluator``), so two permutations of the same edits denote the
  same variant and must share one cache entry.  Duplicated edits are kept
  (applying ``copy`` twice is not the same as applying it once), which is
  why the key is a sorted tuple rather than a frozen set.
* :class:`FitnessCache` -- a two-tier cache: an always-on in-memory dict
  plus an optional disk tier that survives across runs.  Keys are
  ``(workload id, arch name, canonical edit-set hash)`` so one cache
  file can serve many workloads and architectures at once.

The disk tier is :class:`~repro.runtime.sqlite_store.SqliteCacheStore`:
one row per entry in a WAL-mode SQLite database, where each flush upserts
only the entries added or changed since the last one, so flush cost is
O(new entries), not O(cache size).  A cache file is disposable
acceleration state: a corrupt, incompatible or non-SQLite file behaves
like an empty one.  ``inf`` runtimes of invalid variants round-trip
through JSON's ``Infinity`` literal.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from ..gevo.edits import Edit
from ..gevo.fitness import CaseResult, FitnessResult

#: Bump when the on-disk layout or the key derivation changes.
CACHE_FORMAT_VERSION = 1


# -- canonical edit-set identity ------------------------------------------------------

def canonical_edit_key(edits: Sequence[Edit]) -> Tuple[str, ...]:
    """Order-insensitive, duplicate-preserving identity of an edit list.

    ``repr`` of :meth:`Edit.key` is stable for the primitive types edit
    keys are built from (strings, ints, floats, nested tuples) and gives a
    total order even across heterogeneous key shapes, which plain tuple
    comparison does not.
    """
    return tuple(sorted(repr(edit.key()) for edit in edits))


def canonical_edit_hash(edits: Sequence[Edit]) -> str:
    """Hex digest of :func:`canonical_edit_key`, usable as a file-safe id.

    Invariant: the hash is **order-insensitive** over the edit multiset --
    any permutation of the same edit list produces the same digest, so
    permuted genomes share one cache entry -- and **duplicate-preserving**
    (two copies of an edit hash differently from one).
    """
    payload = "\n".join(canonical_edit_key(edits)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _atomic_write(path: str, writer, *, durable: bool = False) -> None:
    """Run *writer(handle)* against a temp file, then rename over *path*.

    A crash mid-write never damages an existing file at *path*; readers
    see either the old content or the new, never a torn mix.  The single
    implementation behind checkpoints, the sweep record/report writers and
    the telemetry metrics/trace files (pinned by the crash tests in
    ``tests/runtime/test_durability.py``).

    With ``durable=True`` the temp file is fsynced before the rename and
    the containing directory after it, so the new content (and the
    directory entry pointing at it) survive a *power loss*, not just a
    process kill.  Plain rename-atomicity only guarantees that some
    whole version of the file exists after a crash; without the fsyncs
    the filesystem may journal the rename before the data blocks,
    leaving a zero-length or truncated file after power failure.
    Checkpoints opt in (irreplaceable search state); the other writers
    do not.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            writer(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
        if durable:
            _fsync_directory(directory)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _fsync_directory(directory: str) -> None:
    """Persist a directory's entries (i.e. a just-completed rename)."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories; best effort
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def atomic_write_text(path: str, text: str, *, durable: bool = False) -> None:
    """Atomically write *text* to *path* (tmp file + rename)."""
    _atomic_write(path, lambda handle: handle.write(text), durable=durable)


def atomic_write_json(path: str, document, *, durable: bool = False,
                      **dump_kwargs) -> None:
    """Atomically serialise *document* as JSON to *path* (streaming)."""
    _atomic_write(path, lambda handle: json.dump(document, handle, **dump_kwargs),
                  durable=durable)


@dataclass(frozen=True)
class CacheKey:
    """Identity of one fitness evaluation: what ran, where, with which edits."""

    workload_id: str
    arch_name: str
    edit_hash: str

    def to_string(self) -> str:
        return f"{self.workload_id}|{self.arch_name}|{self.edit_hash}"

    @classmethod
    def from_string(cls, text: str) -> "CacheKey":
        workload_id, arch_name, edit_hash = text.rsplit("|", 2)
        return cls(workload_id, arch_name, edit_hash)


# -- FitnessResult (de)serialisation --------------------------------------------------

def result_to_dict(result: FitnessResult) -> Dict[str, object]:
    return {
        "valid": result.valid,
        "runtime_ms": result.runtime_ms,
        "cases": [
            {"name": case.name, "passed": case.passed,
             "runtime_ms": case.runtime_ms, "message": case.message}
            for case in result.cases
        ],
    }


def result_from_dict(data: Dict[str, object]) -> FitnessResult:
    cases = [CaseResult(name=case["name"], passed=case["passed"],
                        runtime_ms=case["runtime_ms"], message=case.get("message", ""))
             for case in data.get("cases", [])]
    return FitnessResult(valid=data["valid"], runtime_ms=data["runtime_ms"], cases=cases)


# -- the cache ------------------------------------------------------------------------

class FitnessCache:
    """In-memory fitness cache with an optional persistent disk tier.

    With ``path=None`` the cache is purely in-memory (the default for
    tests and one-shot runs).  With a path, the memory tier is
    pre-populated from the :class:`~repro.runtime.sqlite_store.SqliteCacheStore`
    at *path* and :meth:`save` writes new/changed entries back to it;
    saving is a no-op unless entries were added or overwritten since the
    last write.  A directory at *path* is rejected with a
    :class:`~repro.errors.ReproError` before anything is opened.
    """

    def __init__(self, path: Optional[str] = None):
        # Imported lazily: the store builds on the key and payload helpers
        # defined in this module.
        from .sqlite_store import SqliteCacheStore

        self._store = SqliteCacheStore(path) if path is not None else None
        #: Lookups answered and missed by :meth:`get`, and entries loaded
        #: from the disk tier.
        self.hits = 0
        self.misses = 0
        self.loaded = 0
        self._entries: Dict[CacheKey, FitnessResult] = {}
        self._dirty_keys: Set[CacheKey] = set()
        if self._store is not None:
            self.load()

    @property
    def path(self) -> Optional[str]:
        return self._store.path if self._store is not None else None

    @property
    def store(self):
        """The :class:`~repro.runtime.sqlite_store.SqliteCacheStore`, if any."""
        return self._store

    # -- lookup ------------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[FitnessResult]:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def peek(self, key: CacheKey) -> Optional[FitnessResult]:
        """Lookup without touching the hit/miss counters."""
        return self._entries.get(key)

    def put(self, key: CacheKey, result: FitnessResult) -> None:
        existing = self._entries.get(key)
        if existing is None:
            self._dirty_keys.add(key)
        elif existing != result:
            # Overwriting with a different result must persist too -- the
            # original implementation only marked new keys dirty, so a
            # changed entry silently evaporated at the next save.
            self._dirty_keys.add(key)
        self._entries[key] = result

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    # -- persistence -------------------------------------------------------------------
    def load(self) -> int:
        """Merge entries from the disk tier into the memory tier.

        Returns the number of entries loaded; a missing file loads zero
        entries (first run with a fresh cache path).
        """
        if self._store is None:
            return 0
        loaded = 0
        for key_text, payload in self._store.load().items():
            try:
                key = CacheKey.from_string(key_text)
                result = result_from_dict(payload)
            except (ValueError, KeyError, TypeError):
                continue
            if key not in self._entries:
                self._entries[key] = result
                loaded += 1
        self.loaded += loaded
        return loaded

    def save(self) -> bool:
        """Write new/changed entries through the disk tier when dirty."""
        if self._store is None or not self._dirty_keys:
            return False
        self._store.flush(self._entries, set(self._dirty_keys))
        self._dirty_keys.clear()
        return True

    def maybe_save(self) -> bool:
        """The engine's flush after every batch: :meth:`save` when dirty.

        A flush upserts only the dirty rows, so it is cheap enough to run
        per batch, and an unclean exit loses nothing already handed to
        :meth:`put`.  ``perfbench`` times this hook apart from
        :meth:`save` itself.
        """
        return self.save()

    def close(self) -> None:
        """Flush pending entries and release the disk tier's resources."""
        self.save()
        if self._store is not None:
            self._store.close()

    # -- bulk import/export ------------------------------------------------------------
    def export_entries(self) -> Dict[str, Dict[str, object]]:
        """Every entry, serialised as key string -> payload."""
        return {key.to_string(): result_to_dict(result)
                for key, result in self._entries.items()}

    def import_entries(self, entries: Dict[str, Dict[str, object]]) -> int:
        imported = 0
        for key_text, payload in entries.items():
            key = CacheKey.from_string(key_text)
            if key not in self._entries:
                self._entries[key] = result_from_dict(payload)
                self._dirty_keys.add(key)
                imported += 1
        return imported
