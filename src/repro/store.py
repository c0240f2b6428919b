"""repro.store: the persistent record store behind every checkpoint.

Every persistence layer in the pipeline -- the solve cache, the
cachedb, worker-local caches, the study's finished cells -- needs the
same small contract: get/put JSON records by string key, batch writes
into explicit flushes, survive concurrent writers, stamp records with
a model version so stale numbers are never served, and tombstone
corrupt records so they are neither re-parsed nor re-persisted.
:class:`SqliteStore` is that contract, over a WAL-mode sqlite database
with one row per record::

    records(key PRIMARY KEY, shard, value, version,
            created_s, last_access_s, tombstone)

(``shard`` is always ``''``; the column stays so databases written by
earlier builds open unchanged), plus a ``meta`` table of string rows
(:meth:`SqliteStore.get_meta` / :meth:`SqliteStore.put_meta`): the
schema version, and in a cachedb the grid row that makes the store one.

* **Flushes are O(dirty records), not O(total records).**  A flush
  upserts only the staged puts and marks only the staged tombstones;
  reads write nothing, and unrelated rows are never rewritten
  (``benchmarks/test_bench_store.py`` asserts it).
* **Concurrent writers need no whole-file merge.**  WAL mode lets
  readers proceed under a writer; write transactions (``BEGIN
  IMMEDIATE``) serialize on sqlite's own lock with a generous busy
  timeout.  Two processes upserting distinct keys can never lose each
  other's rows.
* **Versions coexist per record.**  Each row carries the model version
  it was written at, and only rows at the store's version are served.
  One file may hold several kinds of record -- solves, and a study's
  cells (:mod:`repro.study.runner`) -- each at its own version; ``gc``
  deletes the rows at versions it is not told to keep.  (Nothing reads
  ``last_access_s``; the column and its index stay so databases
  written by earlier builds open unchanged.)

Determinism contract: the store changes *when* a record is read from
or written to disk, never *what* the record says.  Records are JSON
objects whose floats round-trip bit-exactly (shortest-repr encoding),
so a served record is field-for-field identical to the one that was
put.

:func:`open_store` opens a store from a plain path or a ``sqlite:PATH``
URL; both spellings name the same database, and a URL takes no
options.  The ``json:`` scheme of the removed JSON backend is refused.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable

__all__ = ["SqliteStore", "Validator", "open_store"]

#: Record validation hook: ``validate(record) -> bool``.  A record that
#: fails validation is structurally corrupt -- tombstoned, counted, and
#: never served.
Validator = Callable[[dict], bool]

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
"""


def open_store(
    spec: str | os.PathLike,
    *,
    version: str,
    validate: Validator | None = None,
) -> "SqliteStore":
    """Open the store named by ``spec``: a path, or ``sqlite:PATH``.

    ``version`` stamps every record written and selects the records
    served; ``validate`` screens structurally corrupt records.
    """
    return SqliteStore(parse_store_url(spec), version=version,
                       validate=validate)


def parse_store_url(spec: str | os.PathLike) -> str:
    """The database path named by a store ``spec``."""
    text = os.fspath(spec)
    path = text
    if text.startswith("json:"):
        raise ValueError(
            f"the json: store scheme was removed ({text!r}); solve stores "
            "are sqlite databases: pass a path or sqlite:PATH"
        )
    if text.startswith("sqlite:"):
        path, _, query = text[len("sqlite:"):].partition("?")
        if query:
            key = query.partition("=")[0]
            raise ValueError(
                f"unknown store option {key!r} in {text!r}; "
                "a store url takes none"
            )
    if not path:
        raise ValueError(f"no path in store url {text!r}")
    return path


class SqliteStore:
    """WAL-mode sqlite record store.

    Writes are batched:

    * :meth:`put` and :meth:`tombstone` only stage the change;
    * :meth:`flush` writes everything staged in one transaction (a
      no-op when clean);
    * entering the store as a context manager defers nested flushes to
      the outermost exit, so a thousand-record sweep costs O(1) writes.

    Staged puts are served before they are flushed (read your writes).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        version: str,
        validate: Validator | None = None,
    ):
        self.path = Path(path)
        self.version = version
        self.validate = validate
        #: Flushes that wrote (monotonic for the life of the instance).
        self.flush_writes = 0
        self._tombstoned: set[str] = set()
        self._dirty = False
        self._defer_depth = 0
        #: Staged puts awaiting the next flush (served read-your-writes).
        self._pending: dict[str, dict] = {}
        #: Tombstones not yet persisted to the ``tombstone`` column.
        self._unsaved_tombstones: set[str] = set()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._connect()
        self._init_meta()

    def _connect(self):
        import sqlite3  # loaded on the first open, not on package import

        conn = None
        try:
            conn = sqlite3.connect(
                self.path, timeout=_BUSY_TIMEOUT_MS / 1000.0
            )
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            # A directory, or a file that is not a sqlite database (an
            # old JSON cache, say): refused untouched, never overwritten.
            if conn is not None:
                conn.close()
            raise ValueError(
                f"cannot use {self.path} as a record store ({exc}); "
                "remove it or choose another path"
            ) from exc
        # WAL lets readers run under a writer; NORMAL sync is durable
        # against process crashes (the threat model here), and the busy
        # timeout makes lock contention wait instead of erroring.
        # Switching to WAL takes a lock the busy handler does not wait
        # for, so a first open racing other openers retries it.
        deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        return conn

    def _init_meta(self) -> None:
        schema = self.get_meta("schema")
        if schema is None:
            self.put_meta("schema", SCHEMA_VERSION)
        elif schema != SCHEMA_VERSION:
            warnings.warn(
                f"store {self.path} has schema {schema!r} (this build "
                f"expects {SCHEMA_VERSION!r}); opening best-effort",
                stacklevel=3,
            )

    @property
    def url(self) -> str:
        """Round-trippable store spec: ``open_store(store.url)`` opens
        the same store, in this process or a worker."""
        return f"sqlite:{self.path}"

    # ------------------------------------------------------------------ #
    # Records

    def get(self, key: str) -> dict | None:
        """The record at ``key``, or None (missing, tombstoned, or at
        another version)."""
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
        return self._screen_record(key, record)

    def put(self, key: str, record: dict) -> None:
        """Stage ``record`` at ``key`` (persisted at the next flush)."""
        self._pending[key] = record
        self._tombstoned.discard(key)
        self._unsaved_tombstones.discard(key)
        self._dirty = True

    def tombstone(self, key: str) -> None:
        """Mark ``key``'s record corrupt: dropped from memory and -- at
        the next flush -- from disk, counted, never served again."""
        if key in self._tombstoned:
            return
        self._tombstoned.add(key)
        self._unsaved_tombstones.add(key)
        self._pending.pop(key, None)
        self._dirty = True

    @property
    def corrupt_records(self) -> int:
        """Distinct corrupt/truncated records tombstoned so far."""
        return len(self._tombstoned)

    def _screen_record(self, key: str, record) -> dict | None:
        """Validate one record, tombstoning it when corrupt."""
        ok = isinstance(record, dict) and (
            self.validate is None or self.validate(record)
        )
        if not ok:
            self.tombstone(key)
            return None
        return record

    def __len__(self) -> int:
        """Live record count: current version, not tombstoned,
        staged puts included."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM records WHERE tombstone=0 AND version=?",
            (self.version,),
        ).fetchone()
        # Staged puts and unflushed tombstones are disjoint; each one
        # replaces whatever live row its key has on disk.
        for key in self._pending.keys() | self._unsaved_tombstones:
            on_disk = self._conn.execute(
                "SELECT 1 FROM records "
                "WHERE key=? AND tombstone=0 AND version=?",
                (key, self.version),
            ).fetchone()
            count += (key in self._pending) - (on_disk is not None)
        return count

    # ------------------------------------------------------------------ #
    # Flush: one write transaction, O(staged mutations)

    def flush(self) -> None:
        """Persist staged mutations (no-op when clean or deferred)."""
        if self._dirty and self._defer_depth == 0:
            self._save()
            self._dirty = False
            self.flush_writes += 1

    def __enter__(self) -> "SqliteStore":
        self._defer_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._defer_depth -= 1
        self.flush()

    def close(self) -> None:
        """Flush and close the database connection."""
        self.flush()
        self._conn.close()

    def _save(self) -> None:
        now = time.time()
        # BEGIN IMMEDIATE takes the write lock up front, so concurrent
        # writers queue on the busy timeout instead of failing mid-way.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO records (key, value, version, "
                "created_s, last_access_s, tombstone) "
                "VALUES (?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(key) DO UPDATE SET "
                "value=excluded.value, version=excluded.version, "
                "last_access_s=excluded.last_access_s, tombstone=0",
                [
                    (
                        key,
                        json.dumps(record, sort_keys=True),
                        self.version,
                        now,
                        now,
                    )
                    for key, record in self._pending.items()
                ],
            )
            self._conn.executemany(
                "UPDATE records SET tombstone=1 WHERE key=?",
                [(key,) for key in self._unsaved_tombstones],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._pending.clear()
        self._unsaved_tombstones.clear()

    # ------------------------------------------------------------------ #
    # Inspection and maintenance

    def bytes_on_disk(self) -> int:
        """Database plus WAL and shared-memory files (0 when unwritten)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(f"{self.path}{suffix}")
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """The ``store.*`` metric family."""
        return {
            "records": len(self),
            "corrupt_records": self.corrupt_records,
            "flush_writes": self.flush_writes,
            "bytes_on_disk": self.bytes_on_disk(),
        }

    def get_meta(self, key: str) -> str | None:
        """The ``meta`` table's value at ``key``, or None."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def put_meta(self, key: str, value: str | None) -> None:
        """Write (None: delete) the ``meta`` row at ``key``, after a
        flush: it lands after every record put before it."""
        self.flush()
        with self._conn:
            if value is None:
                self._conn.execute("DELETE FROM meta WHERE key=?", (key,))
            else:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    (key, value),
                )

    def version_counts(self) -> dict[str, int]:
        """Record count per model version (tombstones excluded)."""
        return dict(
            self._conn.execute(
                "SELECT version, COUNT(*) FROM records "
                "WHERE tombstone=0 GROUP BY version"
            )
        )

    def gc(self, keep: tuple[str, ...] = ()) -> dict:
        """Delete tombstoned rows and every row at a version other than
        this store's and those in ``keep``, then compact.  Returns what
        was reclaimed."""
        before = self.bytes_on_disk()
        self.flush()
        versions = (self.version, *keep)
        with self._conn:
            purged = self._conn.execute(
                "DELETE FROM records WHERE tombstone=1"
            ).rowcount
            other = self._conn.execute(
                "DELETE FROM records WHERE version NOT IN "
                f"({', '.join('?' * len(versions))})",
                versions,
            ).rowcount
        # VACUUM rewrites the database through the WAL; the checkpoint
        # after it moves those pages home and truncates the WAL.
        self._conn.execute("VACUUM")
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {
            "purged_tombstones": purged,
            "purged_other_versions": other,
            "bytes_before": before,
            "bytes_after": self.bytes_on_disk(),
        }

    def info(self) -> dict:
        """Inspection report for ``repro cache info``."""
        return {
            "path": str(self.path),
            "url": self.url,
            "version": self.version,
            "records": len(self),
            "bytes_on_disk": self.bytes_on_disk(),
            "versions": self.version_counts(),
        }
