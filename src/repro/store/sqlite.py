"""The sqlite backend: bounded, concurrently-writable, O(dirty) flushes.

A WAL-mode sqlite database holds one row per record::

    records(key PRIMARY KEY, shard, value, version,
            created_s, last_access_s, tombstone)

Differences from the JSON-file backend that matter at scale:

* **Flushes are O(dirty records), not O(total records).**  A flush
  upserts only the staged puts, touch-updates only the keys read since
  the last flush, and never rewrites unrelated rows.  A one-record put
  into a 10k-record store costs one row write, not a 10k-record file
  rewrite (``benchmarks/test_bench_store.py`` asserts the gap).
* **Concurrent writers need no whole-file merge.**  WAL mode lets
  readers proceed under a writer; write transactions (``BEGIN
  IMMEDIATE``) serialize on sqlite's own lock with a generous busy
  timeout.  Two processes upserting distinct keys can never lose each
  other's rows -- there is no read-modify-write of the whole store.
* **The record count is bounded.**  With ``max_records`` set, every
  flush evicts least-recently-used rows (by ``last_access_s``, ties by
  key) down to the bound.  Reads batch their LRU touches in memory and
  persist them at the next flush, so a get costs no write of its own.
* **Versions coexist per record.**  Each row carries the model version
  it was written at; only current-version rows are served.  A newer
  build's rows sit untouched next to ours (no sibling-file redirect
  needed) until ``gc`` reclaims known-older ones.

Key-prefix sharding is an option, not a default: ``shard_prefix=N``
stores the first N key characters in an indexed ``shard`` column, which
gives multi-host partitioning (ROADMAP item 5) an efficient
``scan(shard=...)`` without schema changes.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Iterator

from repro.store.base import KVStore, Validator

#: Schema version stamped into the ``meta`` table.  Bump on any schema
#: change; an unrecognized (newer) schema warns and opens best-effort.
SCHEMA_VERSION = "repro-store-sqlite-v1"

#: How long a writer waits on sqlite's lock before erroring (ms).
_BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    key           TEXT PRIMARY KEY,
    shard         TEXT NOT NULL DEFAULT '',
    value         TEXT NOT NULL,
    version       TEXT NOT NULL,
    created_s     REAL NOT NULL,
    last_access_s REAL NOT NULL,
    tombstone     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_records_lru
    ON records (version, tombstone, last_access_s, key);
CREATE INDEX IF NOT EXISTS idx_records_shard
    ON records (shard);
"""


class SqliteStore(KVStore):
    """WAL-mode sqlite record store with LRU-bounded capacity."""

    BACKEND = "sqlite"

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        version: str,
        older_versions: tuple[str, ...] = (),
        validate: Validator | None = None,
        max_records: int | None = None,
        shard_prefix: int = 0,
    ):
        super().__init__(
            version=version, older_versions=older_versions,
            validate=validate,
        )
        if max_records is not None and max_records <= 0:
            raise ValueError(
                f"max_records must be positive, got {max_records}"
            )
        self._path = Path(path)
        self.max_records = max_records
        self.shard_prefix = int(shard_prefix)
        #: Staged puts awaiting the next flush (served read-your-writes).
        self._pending: dict[str, dict] = {}
        #: Keys read since the last flush; their LRU stamps batch into it.
        self._touched: set[str] = set()
        #: Tombstones not yet persisted to the ``tombstone`` column.
        self._unsaved_tombstones: set[str] = set()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        import sqlite3  # loaded on the first open, not on package import

        self._conn = sqlite3.connect(
            self._path, timeout=_BUSY_TIMEOUT_MS / 1000.0
        )
        self._conn.executescript(_SCHEMA)
        # WAL lets readers run under a writer; NORMAL sync is durable
        # against process crashes (the threat model here), and the busy
        # timeout makes lock contention wait instead of erroring.
        # Switching to WAL takes a lock the busy handler does not wait
        # for, so a first open racing other openers retries it.
        deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000.0
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._init_meta()

    def _init_meta(self) -> None:
        with self._conn:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) "
                    "VALUES ('schema', ?)",
                    (SCHEMA_VERSION,),
                )
            elif row[0] != SCHEMA_VERSION:
                warnings.warn(
                    f"store {self._path} has schema {row[0]!r} (this "
                    f"build expects {SCHEMA_VERSION!r}); opening "
                    "best-effort",
                    stacklevel=3,
                )

    # ------------------------------------------------------------------ #
    # Engine interface

    @property
    def path(self) -> Path:
        return self._path

    @property
    def url(self) -> str:
        options = []
        if self.max_records is not None:
            options.append(f"max_records={self.max_records}")
        if self.shard_prefix:
            options.append(f"shard_prefix={self.shard_prefix}")
        query = f"?{'&'.join(options)}" if options else ""
        return f"sqlite:{self._path}{query}"

    def _shard(self, key: str) -> str:
        return key[: self.shard_prefix] if self.shard_prefix else ""

    def get(self, key: str) -> dict | None:
        if key in self._tombstoned:
            return None
        pending = self._pending.get(key)
        if pending is not None:
            return self._screen_record(key, pending)
        row = self._conn.execute(
            "SELECT value, version FROM records "
            "WHERE key=? AND tombstone=0",
            (key,),
        ).fetchone()
        if row is None or row[1] != self.version:
            return None
        try:
            record = json.loads(row[0])
        except ValueError:
            self.tombstone(key)
            return None
        record = self._screen_record(key, record)
        if record is None:
            return None
        # Batched LRU touch: persisted at the next flush, so reads
        # between flushes cost no write of their own.
        self._touched.add(key)
        self._dirty = True
        return record

    def put(self, key: str, record: dict) -> None:
        self._pending[key] = record
        self._tombstoned.discard(key)
        self._unsaved_tombstones.discard(key)
        self._dirty = True

    def _drop(self, key: str) -> None:
        self._pending.pop(key, None)
        self._touched.discard(key)
        self._unsaved_tombstones.add(key)

    def scan(self, shard: str | None = None) -> Iterator[tuple[str, dict]]:
        """Live current-version records in key order.

        ``shard`` restricts the scan to one key-prefix shard (only
        meaningful with ``shard_prefix`` set) -- the partition hook for
        multi-host work splitting.
        """
        query = (
            "SELECT key, value FROM records "
            "WHERE tombstone=0 AND version=?"
        )
        params: tuple = (self.version,)
        if shard is not None:
            query += " AND shard=?"
            params += (shard,)
        for key, value in self._conn.execute(
            query + " ORDER BY key", params
        ):
            if key in self._pending or key in self._tombstoned:
                continue
            try:
                record = json.loads(value)
            except ValueError:
                self.tombstone(key)
                continue
            record = self._screen_record(key, record)
            if record is not None:
                yield key, record
        for key in sorted(self._pending):
            if shard is not None and self._shard(key) != shard:
                continue
            record = self._screen_record(key, self._pending[key])
            if record is not None:
                yield key, record

    def __len__(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM records WHERE tombstone=0 AND version=?",
            (self.version,),
        ).fetchone()
        for key in self._pending:
            if key in self._tombstoned:
                continue
            row = self._conn.execute(
                "SELECT 1 FROM records "
                "WHERE key=? AND tombstone=0 AND version=?",
                (key, self.version),
            ).fetchone()
            if row is None:
                count += 1
        return count

    def refresh(self) -> None:
        """No-op: every read already goes to the shared database."""

    # ------------------------------------------------------------------ #
    # Flush: one write transaction, O(staged mutations)

    def _save(self) -> None:
        now = time.time()
        # BEGIN IMMEDIATE takes the write lock up front so the count-
        # then-evict step below is atomic against concurrent writers.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO records (key, shard, value, version, "
                "created_s, last_access_s, tombstone) "
                "VALUES (?, ?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(key) DO UPDATE SET "
                "shard=excluded.shard, value=excluded.value, "
                "version=excluded.version, "
                "last_access_s=excluded.last_access_s, tombstone=0",
                [
                    (
                        key,
                        self._shard(key),
                        json.dumps(record, sort_keys=True),
                        self.version,
                        now,
                        now,
                    )
                    for key, record in self._pending.items()
                ],
            )
            self._conn.executemany(
                "UPDATE records SET last_access_s=? WHERE key=?",
                [
                    (now, key)
                    for key in self._touched
                    if key not in self._pending
                ],
            )
            self._conn.executemany(
                "UPDATE records SET tombstone=1 WHERE key=?",
                [(key,) for key in self._unsaved_tombstones],
            )
            self._evict_locked()
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._pending.clear()
        self._touched.clear()
        self._unsaved_tombstones.clear()

    def _evict_locked(self) -> None:
        """Enforce ``max_records`` inside the current write transaction."""
        if self.max_records is None:
            return
        (live,) = self._conn.execute(
            "SELECT COUNT(*) FROM records WHERE tombstone=0 AND version=?",
            (self.version,),
        ).fetchone()
        excess = live - self.max_records
        if excess <= 0:
            return
        self._conn.execute(
            "DELETE FROM records WHERE key IN ("
            "SELECT key FROM records WHERE tombstone=0 AND version=? "
            "ORDER BY last_access_s ASC, key ASC LIMIT ?)",
            (self.version, excess),
        )
        self.evictions += excess

    # ------------------------------------------------------------------ #
    # Inspection and maintenance

    def bytes_on_disk(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(f"{self._path}{suffix}")
            except OSError:
                pass
        return total

    def shard_counts(self) -> dict[str, int]:
        """Live current-version record count per key-prefix shard."""
        return dict(
            self._conn.execute(
                "SELECT shard, COUNT(*) FROM records "
                "WHERE tombstone=0 AND version=? GROUP BY shard",
                (self.version,),
            )
        )

    def version_counts(self) -> dict[str, int]:
        """Record count per model version (tombstones excluded)."""
        return dict(
            self._conn.execute(
                "SELECT version, COUNT(*) FROM records "
                "WHERE tombstone=0 GROUP BY version"
            )
        )

    def gc(self) -> dict:
        """Purge tombstoned rows and known-older-version rows, then
        compact.  Rows at unrecognized versions (a newer build's) are
        counted but preserved."""
        before = self.bytes_on_disk()
        self.flush()
        with self._conn:
            purged = self._conn.execute(
                "DELETE FROM records WHERE tombstone=1"
            ).rowcount
            stale = 0
            if self.older_versions:
                placeholders = ",".join("?" * len(self.older_versions))
                stale = self._conn.execute(
                    f"DELETE FROM records WHERE version IN ({placeholders})",
                    self.older_versions,
                ).rowcount
            (foreign,) = self._conn.execute(
                "SELECT COUNT(*) FROM records WHERE version != ?",
                (self.version,),
            ).fetchone()
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.execute("VACUUM")
        return {
            "backend": self.BACKEND,
            "purged_tombstones": purged,
            "purged_stale_versions": stale,
            "foreign_version_records": foreign,
            "bytes_before": before,
            "bytes_after": self.bytes_on_disk(),
        }

    def info(self) -> dict:
        report = super().info()
        report["max_records"] = self.max_records
        report["shard_prefix"] = self.shard_prefix
        report["versions"] = self.version_counts()
        if self.shard_prefix:
            report["shards"] = len(self.shard_counts())
        return report

    def close(self) -> None:
        self.flush()
        self._conn.close()
