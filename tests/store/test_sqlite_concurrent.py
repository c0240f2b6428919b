"""Concurrent-writer safety for the sqlite store: N processes
hammering one database with overlapping keys must lose no records
and corrupt nothing.

The processes are real (``multiprocessing`` with the fork context --
no pickling of test-module functions needed on Linux), the keys
deliberately overlap between writers, and every writer flushes many
times so the BEGIN IMMEDIATE upsert path sees genuine lock contention.
"""

import json
import multiprocessing
import sqlite3

import pytest

from repro.store import SqliteStore

VERSION = "concurrent-v1"

#: Writers x records: small enough to run in seconds, large enough that
#: interleaved flushes genuinely contend for the write lock.
WRITERS = 4
RECORDS_PER_WRITER = 60
#: Keys shared by every writer (all writers put the same record there,
#: so any interleaving leaves a valid value).
SHARED_KEYS = 10


def _writer(path, writer_id, barrier):
    """One writer process: interleaved puts and frequent flushes."""
    store = SqliteStore(path, version=VERSION)
    barrier.wait()  # maximize overlap: all writers start together
    for i in range(RECORDS_PER_WRITER):
        if i < SHARED_KEYS:
            # Overlapping keys: every writer writes the same record.
            store.put(f"shared-{i}", {"key": f"shared-{i}", "n": i})
        else:
            store.put(
                f"w{writer_id}-{i}", {"key": f"w{writer_id}-{i}", "n": i}
            )
        if i % 7 == 0:
            store.flush()
    store.close()


def _run_writers(path):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(WRITERS)
    procs = [
        ctx.Process(target=_writer, args=(path, writer_id, barrier))
        for writer_id in range(WRITERS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0, f"writer crashed with {p.exitcode}"


def expected_keys():
    keys = {f"shared-{i}" for i in range(SHARED_KEYS)}
    for writer_id in range(WRITERS):
        keys |= {
            f"w{writer_id}-{i}"
            for i in range(SHARED_KEYS, RECORDS_PER_WRITER)
        }
    return keys


@pytest.mark.slow
class TestConcurrentWriters:
    def test_unbounded_no_lost_records(self, tmp_path):
        """Every record every writer put must be present and intact
        afterwards."""
        path = tmp_path / "s.db"
        _run_writers(path)
        store = SqliteStore(path, version=VERSION)
        assert len(store) == len(expected_keys())
        # Every record is intact and self-consistent.
        for key in expected_keys():
            assert store.get(key)["key"] == key
        assert store.corrupt_records == 0
        store.close()

    def test_database_integrity_after_contention(self, tmp_path):
        path = tmp_path / "s.db"
        _run_writers(path)
        conn = sqlite3.connect(path)
        (verdict,) = conn.execute("PRAGMA integrity_check").fetchone()
        assert verdict == "ok"
        # Raw rows are all parseable JSON at the expected version.
        for value, version in conn.execute(
            "SELECT value, version FROM records"
        ):
            assert version == VERSION
            json.loads(value)
        conn.close()
