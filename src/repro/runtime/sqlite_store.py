"""SQLite disk tier of the fitness cache.

The store keeps one row per cache entry in a WAL-mode SQLite database
and, on flush, upserts **only** the entries added or changed since the
last flush, so flush cost is O(dirty entries), not O(cache size).

Properties the durability tests pin down:

* **Incremental flushes** -- ``flush`` runs one transaction of
  ``INSERT ... ON CONFLICT DO UPDATE`` over the dirty keys; the table is
  never rewritten.
* **Crash safety** -- a failure mid-flush aborts the transaction; the
  previously committed rows remain loadable (SQLite's journal guarantees
  this even across process death).
* **Concurrent readers** -- WAL mode lets other processes read the cache
  while a writer is flushing; readers see the last committed snapshot.
* **Disposability without destruction** -- a corrupt or truncated
  database file loads as an *empty* cache; the unusable file is renamed
  to ``<path>.corrupt`` (never deleted -- it might be a mistyped
  ``--cache`` pointing at a file that is not a cache at all) and a fresh
  database is created in its place.  A directory is refused outright.
* **JSON import** -- opening a path that currently holds a version-1
  JSON cache document (``{"version": 1, "entries": {...}}``) converts it
  to SQLite in place, once: entries are imported, the database
  atomically replaces the JSON file, and subsequent opens are plain
  SQLite.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, Optional, Set

from ..errors import ReproError
from ..gevo.fitness import FitnessResult
from .cache import CACHE_FORMAT_VERSION, CacheKey, result_to_dict

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
"""

_UPSERT = """
INSERT INTO entries (key, payload) VALUES (?, ?)
ON CONFLICT(key) DO UPDATE SET payload = excluded.payload
"""


class SqliteCacheStore:
    """One-row-per-entry fitness-cache store backed by WAL-mode SQLite.

    :meth:`load` returns every entry on disk as key string ->
    payload dict (a missing, corrupt or version-incompatible file loads as
    empty); :meth:`flush` upserts the *dirty_keys* in one transaction.
    """

    def __init__(self, path: str):
        if os.path.isdir(path):
            raise ReproError(
                f"fitness cache path {path} is a directory; pass a file path "
                f"such as {os.path.join(path, 'cache.sqlite')}")
        self.path = path
        #: Entries written by the most recent :meth:`flush` (the
        #: incremental-flush tests read it).
        self.last_flush_count = 0
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management ---------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = self._open()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        migrated = self._read_migratable_json()
        if migrated is not None:
            self._migrate_json(migrated)
        elif self._exists_but_not_sqlite():
            # Neither SQLite nor a compatible JSON cache: set it aside
            # (it may be a mistyped --cache path) and start empty.
            self._set_aside_unusable_file()
        try:
            return self._prepare(sqlite3.connect(self.path))
        except sqlite3.DatabaseError:
            # Truncated/corrupt database: degrade to an empty cache.
            self._set_aside_unusable_file()
            return self._prepare(sqlite3.connect(self.path))

    def _migrate_json(self, migrated: Dict[str, str]) -> None:
        """One-time JSON -> SQLite conversion, atomic w.r.t. the JSON file.

        The database is built next to the JSON cache and atomically renamed
        over it, so a crash mid-migration leaves the original JSON document
        intact and re-triggers the migration on the next open.
        """
        temp_path = self.path + ".migrate"
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        conn = self._prepare(sqlite3.connect(temp_path))
        try:
            with conn:
                conn.executemany(_UPSERT, list(migrated.items()))
        finally:
            # Closing the last connection checkpoints the WAL back into the
            # main file, so the rename moves a self-contained database.
            conn.close()
        os.replace(temp_path, self.path)

    def _prepare(self, conn: sqlite3.Connection) -> sqlite3.Connection:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            with conn:
                version = conn.execute(
                    "SELECT value FROM meta WHERE key = 'version'").fetchone()
                if version is None:
                    conn.execute("INSERT INTO meta (key, value) VALUES ('version', ?)",
                                 (str(CACHE_FORMAT_VERSION),))
                elif version[0] != str(CACHE_FORMAT_VERSION):
                    # Incompatible caches are stale data, not errors: start
                    # over.
                    conn.execute("DELETE FROM entries")
                    conn.execute("UPDATE meta SET value = ? WHERE key = 'version'",
                                 (str(CACHE_FORMAT_VERSION),))
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _exists_but_not_sqlite(self) -> bool:
        try:
            with open(self.path, "rb") as handle:
                header = handle.read(len(SQLITE_MAGIC))
        except OSError:
            return False
        # A zero-length file is what sqlite3.connect itself creates for a
        # fresh database; leave it alone.
        return bool(header) and header != SQLITE_MAGIC

    def _read_migratable_json(self) -> Optional[Dict[str, str]]:
        """Entries of a JSON cache document living at :attr:`path`, if any.

        Returns ``None`` when the path is missing, already SQLite, or not a
        version-1 JSON cache document (unparseable, another version, or
        malformed); otherwise the key -> payload-text map to seed the
        fresh database with (the one-time migration).
        """
        if not self._exists_but_not_sqlite():
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (ValueError, OSError):
            return None
        if not isinstance(document, dict) or document.get("version") != CACHE_FORMAT_VERSION:
            return None
        entries = document.get("entries", {})
        if not isinstance(entries, dict):
            return None
        return {key: json.dumps(payload) for key, payload in entries.items()}

    def _set_aside_unusable_file(self) -> None:
        """Make room for a fresh database without destroying user data.

        The unusable file is renamed to ``<path>.corrupt`` (replacing any
        previous set-aside), so a mistyped ``--cache`` never deletes the
        file it pointed at; WAL sidecars of the broken database are
        meaningless without it and are removed.
        """
        self.close()
        if os.path.exists(self.path):
            os.replace(self.path, self.path + ".corrupt")
        for suffix in ("-wal", "-shm"):
            target = self.path + suffix
            if os.path.exists(target):
                os.unlink(target)

    # -- load / flush ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, object]]:
        if not os.path.exists(self.path):
            return {}
        try:
            rows = self._connection().execute(
                "SELECT key, payload FROM entries").fetchall()
        except sqlite3.DatabaseError:
            self._set_aside_unusable_file()
            return {}
        entries: Dict[str, Dict[str, object]] = {}
        for key, payload in rows:
            try:
                entries[key] = json.loads(payload)
            except ValueError:
                continue
        return entries

    def flush(self, entries: Dict[CacheKey, FitnessResult],
              dirty_keys: Set[CacheKey]) -> None:
        ordered = [key for key in sorted(dirty_keys, key=CacheKey.to_string)
                   if key in entries]

        def rows():
            for key in ordered:
                yield key.to_string(), json.dumps(result_to_dict(entries[key]))

        conn = self._connection()
        # executemany consumes the generator inside one transaction: a
        # failure mid-iteration (or mid-write) rolls the whole flush back,
        # leaving the previously committed rows untouched.
        with conn:
            conn.executemany(_UPSERT, rows())
        self.last_flush_count = len(ordered)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
