"""Unit tests for the persistent solve cache."""

import json
import sqlite3

import pytest

from repro.array.organization import ArraySpec
from repro.core.config import OptimizationTarget
from repro.core.solvecache import (
    CACHE_VERSION,
    SolveCache,
    metrics_from_dict,
    metrics_to_dict,
    solve_key,
)
from repro.core.optimizer import optimize
from repro.store import SqliteStore
from repro.tech.cells import CellTech
from repro.tech.nodes import technology

TECH = technology(32)

SPEC = ArraySpec(
    capacity_bits=8 * (64 << 10),
    output_bits=512,
    assoc=8,
    cell_tech=CellTech.SRAM,
    periph_device_type="hp-long-channel",
)

TARGET = OptimizationTarget()


@pytest.fixture(scope="module")
def best():
    return optimize(TECH, SPEC, TARGET)


def put_and_flush(path, *args) -> SolveCache:
    """One persisted record: ``put`` only marks dirty, ``flush`` writes."""
    cache = SolveCache(path)
    cache.put(*args)
    cache.flush()
    return cache


class TestSerialization:
    def test_round_trip_identity(self, best):
        assert metrics_from_dict(metrics_to_dict(best)) == best

    def test_json_round_trip_identity(self, best):
        """Floats survive JSON encoding bit-exactly (shortest repr)."""
        blob = json.dumps(metrics_to_dict(best))
        assert metrics_from_dict(json.loads(blob)) == best


class TestSolveKey:
    def test_stable(self):
        assert solve_key(SPEC, TARGET, 32.0) == solve_key(SPEC, TARGET, 32.0)

    def test_sensitive_to_every_input(self):
        base = solve_key(SPEC, TARGET, 32.0)
        assert solve_key(SPEC, TARGET, 45.0) != base
        other_target = OptimizationTarget(max_area_fraction=0.1)
        assert solve_key(SPEC, other_target, 32.0) != base
        import dataclasses

        other_spec = dataclasses.replace(SPEC, output_bits=256)
        assert solve_key(other_spec, TARGET, 32.0) != base

    def test_numeric_type_insensitive(self):
        """``node_nm=32`` and ``node_nm=32.0`` are the same solve.

        Regression: JSON encodes ints and floats differently, so the raw
        payload used to hash the same physical request to two keys.
        """
        assert solve_key(SPEC, TARGET, 32) == solve_key(SPEC, TARGET, 32.0)

    def test_numeric_type_insensitive_in_nested_fields(self):
        int_target = OptimizationTarget(max_area_fraction=1)
        float_target = OptimizationTarget(max_area_fraction=1.0)
        assert solve_key(SPEC, int_target, 32.0) == solve_key(
            SPEC, float_target, 32.0
        )

    def test_pinned_key(self):
        """Keys never change under existing stores: this is the key
        every earlier build wrote for SPEC."""
        assert solve_key(SPEC, OptimizationTarget(), 32.0) == (
            "894b18aea985b18e674bd394c45e84f38dda630d9f0cf4cc6fad2028419d22f7"
        )

    @pytest.mark.parametrize("changes", [
        {},
        {"page_bits": 8192, "nbanks": 4},
        {"sleep_transistors": True, "max_repeater_delay_penalty": 0.1},
        {"cell_tech": CellTech.STT_RAM, "periph_device_type": "lstp"},
    ], ids=["default", "page-banks", "sleep-penalty", "stt-lstp"])
    def test_key_is_the_hash_of_the_full_payload(self, changes):
        """The field-by-field payload hashes exactly like the
        ``asdict`` payload it replaces."""
        import dataclasses
        import hashlib

        from repro.core.solvecache import CACHE_VERSION, _normalize_numbers

        spec = dataclasses.replace(SPEC, **changes)
        target = OptimizationTarget(max_area_fraction=1, weight_cycle=2)
        payload = _normalize_numbers({
            "version": CACHE_VERSION,
            "node_nm": 45,
            "spec": {**dataclasses.asdict(spec),
                     "cell_tech": spec.cell_tech.value},
            "target": dataclasses.asdict(target),
        })
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert solve_key(spec, target, 45) == hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()

    def test_memo_follows_the_version(self, monkeypatch):
        """The per-process memo is keyed on the version too, so a
        patched version never returns the key it memoized before."""
        import repro.core.solvecache as solvecache

        base = solve_key(SPEC, TARGET, 32.0)
        monkeypatch.setattr(solvecache, "CACHE_VERSION", "other-version")
        assert solve_key(SPEC, TARGET, 32.0) != base
        monkeypatch.undo()
        assert solve_key(SPEC, TARGET, 32.0) == base

    def test_bools_stay_distinct_from_ints(self):
        """Normalization must not collapse True onto 1.0."""
        from repro.core.solvecache import _normalize_numbers

        normalized = _normalize_numbers({"flag": True, "count": 1})
        assert normalized["flag"] is True
        assert isinstance(normalized["count"], float)


def rows(path) -> list[tuple]:
    """``(key, value, version, tombstone)`` of every row on disk, read
    through a connection of its own."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT key, value, version, tombstone FROM records"
        ).fetchall()
    finally:
        conn.close()


def rewrite_value(path, key, value: str) -> None:
    """Overwrite one row's stored JSON, as a hand edit or a torn write
    would."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            conn.execute(
                "UPDATE records SET value=? WHERE key=?", (value, key)
            )
    finally:
        conn.close()


def put_at_version(path, version, *args) -> None:
    """One solve record written at another model version."""
    store = SqliteStore(path, version=version)
    store.put(solve_key(*args[:3]), metrics_to_dict(args[3]))
    store.close()


class TestSolveCache:
    def test_put_get(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.put(SPEC, TARGET, 32.0, best)
        assert cache.get(SPEC, TARGET, 32.0) == best
        assert cache.hits == 1 and cache.misses == 1

    def test_persists_across_instances(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert SolveCache(path).get(SPEC, TARGET, 32.0) == best

    def test_missing_file_is_empty(self, tmp_path):
        cache = SolveCache(tmp_path / "nope" / "c.db")
        assert len(cache) == 0

    def test_version_mismatch_discards_records(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_at_version(path, "repro-solve-cache-v1", SPEC, TARGET, 32.0,
                       best)
        assert len(SolveCache(path)) == 0

    def test_version_stamp_written(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert [version for _, _, version, _ in rows(path)] == [
            CACHE_VERSION
        ]

    def test_truncated_record_is_a_miss(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        [(key, value, _, _)] = rows(path)
        record = json.loads(value)
        del record["rows"]
        rewrite_value(path, key, json.dumps(record))
        assert SolveCache(path).get(SPEC, TARGET, 32.0) is None


class TestConcurrentWriters:
    """Two processes sharing one --cache path must never lose records."""

    def _other_spec(self, output_bits=256):
        import dataclasses

        return dataclasses.replace(SPEC, output_bits=output_bits)

    def test_interleaved_puts_merge_instead_of_truncating(
        self, tmp_path, best
    ):
        path = tmp_path / "c.db"
        # Both handles open the (empty) store before either writes --
        # the classic lost-update interleaving.
        writer_a = SolveCache(path)
        writer_b = SolveCache(path)
        writer_a.put(SPEC, TARGET, 32.0, best)
        writer_a.flush()
        writer_b.put(self._other_spec(), TARGET, 32.0, best)
        writer_b.flush()
        fresh = SolveCache(path)
        assert fresh.get(SPEC, TARGET, 32.0) == best
        assert fresh.get(self._other_spec(), TARGET, 32.0) == best

    def test_open_instance_serves_foreign_records(self, tmp_path, best):
        path = tmp_path / "c.db"
        reader = SolveCache(path)
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert reader.get(SPEC, TARGET, 32.0) == best

    def test_save_leaves_no_temp_files(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best).close()
        # The WAL and shared-memory files go with the last connection.
        assert sorted(q.name for q in tmp_path.iterdir()) == ["c.db"]


class TestFlushSemantics:
    """put() marks dirty; flush() writes; ``with`` defers nested flushes."""

    def test_put_does_not_touch_disk(self, tmp_path, best):
        path = tmp_path / "c.db"
        cache = SolveCache(path)
        cache.put(SPEC, TARGET, 32.0, best)
        assert rows(path) == []
        # The record is still served from memory before any flush.
        assert cache.get(SPEC, TARGET, 32.0) == best

    def test_flush_writes_once_then_noops(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        cache.flush()  # clean cache: nothing to write
        assert cache.stats()["flush_writes"] == 1

    def test_many_puts_one_write(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        for node in range(32, 64):
            cache.put(SPEC, TARGET, float(node), best)
        cache.flush()
        assert cache.stats()["flush_writes"] == 1
        assert len(SolveCache(cache.path)) == 32

    def test_context_manager_defers_nested_flushes(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        with cache:
            for node in (32.0, 45.0):
                cache.put(SPEC, TARGET, node, best)
                cache.flush()  # the per-solve boundary flush, deferred
            assert cache.stats()["flush_writes"] == 0
        assert cache.stats()["flush_writes"] == 1
        assert len(SolveCache(cache.path)) == 2

    def test_nested_contexts_flush_at_outermost_exit(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        with cache:  # batch boundary
            with cache:  # solve boundary
                cache.put(SPEC, TARGET, 32.0, best)
            assert cache.stats()["flush_writes"] == 0
        assert cache.stats()["flush_writes"] == 1

    def test_clean_context_exit_does_not_write(self, tmp_path):
        cache = SolveCache(tmp_path / "c.db")
        with cache:
            assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.stats()["flush_writes"] == 0


class TestBatchWriteCount:
    """A whole batch of solves costs O(1) store writes."""

    def test_solve_batch_single_write(self, tmp_path, best, monkeypatch):
        from repro.core import optimizer as optimizer_module
        from repro.core.cacti import solve_batch
        from repro.core.config import MemorySpec

        # The write-count contract is independent of what the sweep
        # finds, so skip the expensive candidate evaluation entirely.
        monkeypatch.setattr(
            optimizer_module,
            "feasible_designs",
            lambda tech, spec, **kwargs: [best],
        )
        specs = [
            MemorySpec(
                capacity_bytes=(16 << 10) * (i + 1),
                block_bytes=64,
                associativity=None,
                node_nm=32.0,
            )
            for i in range(24)
        ]
        cache = SolveCache(tmp_path / "c.db")
        solutions = solve_batch(specs, solve_cache=cache, jobs=1)
        assert len(solutions) == 24
        assert cache.stats()["flush_writes"] == 1
        assert len(SolveCache(cache.path)) == 24


class TestCorruptRecordsDropped:
    """Corrupt records are dropped on sight -- counted, never re-parsed,
    never re-persisted."""

    def _corrupt_one_record(self, path):
        [(key, value, _, _)] = rows(path)
        record = json.loads(value)
        del record["rows"]
        rewrite_value(path, key, json.dumps(record))
        return key

    def test_truncated_record_dropped_and_counted(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        self._corrupt_one_record(path)
        cache = SolveCache(path)
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.corrupt_records == 1
        assert cache.stats()["corrupt_records"] == 1
        # Dropped, not just missed: the record no longer counts and a
        # repeat lookup does not re-parse (the counter stays put).
        assert len(cache) == 0
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.corrupt_records == 1
        assert cache.misses == 2

    def test_flush_purges_corrupt_record_from_disk(self, tmp_path, best):
        path = tmp_path / "c.db"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        key = self._corrupt_one_record(path)
        cache = SolveCache(path)
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.flush()
        assert [(k, tomb) for k, _, _, tomb in rows(path)] == [(key, 1)]
        assert SolveCache(path).get(SPEC, TARGET, 32.0) is None
        cache.store.gc()
        assert rows(path) == []

    def test_structurally_corrupt_record_dropped_at_load(
        self, tmp_path, best
    ):
        import dataclasses

        path = tmp_path / "c.db"
        other = dataclasses.replace(SPEC, output_bits=256)
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        put_and_flush(path, other, TARGET, 32.0, best)
        rewrite_value(path, solve_key(other, TARGET, 32.0),
                      json.dumps("not even a dict"))
        cache = SolveCache(path)
        assert cache.get(other, TARGET, 32.0) is None
        assert cache.corrupt_records == 1
        # The good record is untouched.
        assert cache.get(SPEC, TARGET, 32.0) == best


class TestSqliteBackedSolveCache:
    """The facade over a ``sqlite:`` URL."""

    def _url(self, tmp_path):
        return f"sqlite:{tmp_path / 'c.db'}"

    def test_put_get_and_persistence(self, tmp_path, best):
        url = self._url(tmp_path)
        cache = SolveCache(url)
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.put(SPEC, TARGET, 32.0, best)
        assert cache.get(SPEC, TARGET, 32.0) == best
        assert cache.hits == 1 and cache.misses == 1
        cache.close()
        reopened = SolveCache(url)
        assert reopened.get(SPEC, TARGET, 32.0) == best
        reopened.close()
        # The plain path names the same store.
        plain = SolveCache(tmp_path / "c.db")
        assert plain.get(SPEC, TARGET, 32.0) == best
        plain.close()

    def test_older_version_records_are_misses(self, tmp_path, best):
        put_at_version(tmp_path / "c.db", "repro-solve-cache-v2", SPEC,
                       TARGET, 32.0, best)
        cache = SolveCache(self._url(tmp_path))
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.misses == 1
        cache.close()


class TestStoreAccounting:
    """drain_events() hands per-interval deltas to the metric sinks."""

    def test_drain_events_never_double_counts(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.db")
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        cache.get(SPEC, TARGET, 32.0)
        deltas, gauges = cache.drain_events()
        assert deltas["flush_writes"] == 1
        assert deltas["hits"] == 1
        assert gauges["records"] == 1
        # A second drain with no new activity is all zeros.
        deltas, _gauges = cache.drain_events()
        assert all(v == 0 for v in deltas.values())

    def test_account_store_feeds_stats_and_obs(self, tmp_path, best):
        from repro.core.optimizer import SweepStats
        from repro.core.solvecache import account_store
        from repro.obs import Obs

        cache = SolveCache(tmp_path / "c.db")
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        account_store(cache, obs)
        account_store(cache, obs)  # idempotent when idle
        assert stats.store_flush_writes == 1
        assert obs.metrics.counter("store.flush_writes").value == 1
        assert obs.metrics.counter("store.misses").value == 0
        snapshot = obs.metrics.snapshot()
        assert snapshot["gauges"]["store.records"] == 1

    def test_account_store_tolerates_missing_sinks(self, tmp_path, best):
        from repro.core.solvecache import account_store

        account_store(None, None)  # no cache: nothing to do
        cache = SolveCache(tmp_path / "c.db")
        account_store(cache, None)  # no sink: must not drain
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        deltas, _ = cache.drain_events()
        assert deltas["flush_writes"] == 1

    def test_stats_summary_shows_store_line(self, tmp_path, best,
                                            monkeypatch):
        """A solve through a store surfaces flush counts in --stats."""
        from repro.core import optimizer as optimizer_module
        from repro.core.cacti import solve
        from repro.core.config import MemorySpec
        from repro.core.optimizer import SweepStats
        from repro.obs import Obs

        monkeypatch.setattr(
            optimizer_module,
            "feasible_designs",
            lambda tech, spec, **kwargs: [best],
        )
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        cache = SolveCache(tmp_path / "c.db")
        solve(
            MemorySpec(
                capacity_bytes=64 << 10,
                block_bytes=64,
                associativity=None,
                node_nm=32.0,
                cell_tech=CellTech.SRAM,
            ),
            TARGET,
            solve_cache=cache,
            obs=obs,
        )
        assert stats.store_flush_writes == 1
        assert "solve store" in stats.summary()
        cache.close()
