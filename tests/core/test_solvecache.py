"""Unit tests for the persistent solve cache."""

import json

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

    def test_bools_stay_distinct_from_ints(self):
        """Normalization must not collapse True onto 1.0."""
        from repro.core.solvecache import _normalize_numbers

        normalized = _normalize_numbers({"flag": True, "count": 1})
        assert normalized["flag"] is True
        assert isinstance(normalized["count"], float)


class TestSolveCache:
    def test_put_get(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.json")
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.put(SPEC, TARGET, 32.0, best)
        assert cache.get(SPEC, TARGET, 32.0) == best
        assert cache.hits == 1 and cache.misses == 1

    def test_persists_across_instances(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert SolveCache(path).get(SPEC, TARGET, 32.0) == best

    def test_missing_file_is_empty(self, tmp_path):
        cache = SolveCache(tmp_path / "nope" / "c.json")
        assert len(cache) == 0

    def test_corrupt_file_is_empty(self, tmp_path, best):
        path = tmp_path / "c.json"
        path.write_text("{ this is not json")
        cache = SolveCache(path)
        assert len(cache) == 0
        # And still usable for writes afterwards.
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        assert SolveCache(path).get(SPEC, TARGET, 32.0) == best

    def test_version_mismatch_discards_records(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        payload = json.loads(path.read_text())
        payload["version"] = "repro-solve-cache-v1"
        path.write_text(json.dumps(payload))
        assert len(SolveCache(path)) == 0

    def test_v2_cache_ignored_not_corrupted(self, tmp_path, best):
        """Migration contract for the v3 (registry) key-scheme bump: a
        v2 cache file loads as empty -- never an error, never served --
        and stays byte-identical on disk until the first flush rewrites
        it at v3."""
        path = tmp_path / "c.json"
        v2_payload = json.dumps({
            "version": "repro-solve-cache-v2",
            "records": {"deadbeef": {"rows": 64}},
        })
        path.write_text(v2_payload)
        cache = SolveCache(path)
        assert len(cache) == 0
        assert cache.get(SPEC, TARGET, 32.0) is None
        # Reads never touch the file: the v2 records are still intact.
        assert path.read_text() == v2_payload
        # The first flush rewrites at v3, dropping the stale records.
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_VERSION
        assert "deadbeef" not in payload["records"]
        assert SolveCache(path).get(SPEC, TARGET, 32.0) == best

    def test_version_stamp_written(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert json.loads(path.read_text())["version"] == CACHE_VERSION

    def test_truncated_record_is_a_miss(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        payload = json.loads(path.read_text())
        key = next(iter(payload["records"]))
        del payload["records"][key]["rows"]
        path.write_text(json.dumps(payload))
        assert SolveCache(path).get(SPEC, TARGET, 32.0) is None


class TestConcurrentWriters:
    """Two processes sharing one --cache path must never lose records."""

    def _other_spec(self, output_bits=256):
        import dataclasses

        return dataclasses.replace(SPEC, output_bits=output_bits)

    def test_interleaved_puts_merge_instead_of_truncating(
        self, tmp_path, best
    ):
        path = tmp_path / "c.json"
        # Both handles load the (empty) file before either writes --
        # the classic lost-update interleaving.
        writer_a = SolveCache(path)
        writer_b = SolveCache(path)
        writer_a.put(SPEC, TARGET, 32.0, best)
        writer_a.flush()
        writer_b.put(self._other_spec(), TARGET, 32.0, best)
        writer_b.flush()
        # The second save merged the first one's record from disk.
        fresh = SolveCache(path)
        assert fresh.get(SPEC, TARGET, 32.0) == best
        assert fresh.get(self._other_spec(), TARGET, 32.0) == best

    def test_refresh_picks_up_foreign_records(self, tmp_path, best):
        path = tmp_path / "c.json"
        reader = SolveCache(path)
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert len(reader) == 0
        reader.refresh()
        assert reader.get(SPEC, TARGET, 32.0) == best

    def test_save_leaves_no_temp_files(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        # The save-serializing lock file stays behind by design
        # (deleting it would race lock acquisition); no temp file may.
        assert sorted(q.name for q in tmp_path.iterdir()) == [
            "c.json", "c.json.lock",
        ]

    def test_atomic_write_via_os_replace(self, tmp_path, best, monkeypatch):
        """The records file itself is never opened for writing: a crash
        mid-save can only lose the temp file, not the cache."""
        import os as os_module

        replaced = []
        real_replace = os_module.replace

        def spy(src, dst):
            replaced.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.jsonfile.os.replace", spy)
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        assert len(replaced) == 1
        src, dst = replaced[0]
        assert dst == str(path)
        assert src != dst and str(os_module.getpid()) in src


def count_replaces(monkeypatch) -> list:
    """Spy on the cache's atomic-rename calls (one per file write)."""
    import os as os_module

    replaced = []
    real_replace = os_module.replace

    def spy(src, dst):
        replaced.append((str(src), str(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr("repro.store.jsonfile.os.replace", spy)
    return replaced


class TestFlushSemantics:
    """put() marks dirty; flush() writes; ``with`` defers nested flushes."""

    def test_put_does_not_touch_disk(self, tmp_path, best):
        path = tmp_path / "c.json"
        cache = SolveCache(path)
        cache.put(SPEC, TARGET, 32.0, best)
        assert not path.exists()
        # The record is still served from memory before any flush.
        assert cache.get(SPEC, TARGET, 32.0) == best

    def test_flush_writes_once_then_noops(
        self, tmp_path, best, monkeypatch
    ):
        replaced = count_replaces(monkeypatch)
        cache = SolveCache(tmp_path / "c.json")
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        cache.flush()  # clean cache: nothing to write
        assert len(replaced) == 1

    def test_many_puts_one_write(self, tmp_path, best, monkeypatch):
        replaced = count_replaces(monkeypatch)
        cache = SolveCache(tmp_path / "c.json")
        for node in range(32, 64):
            cache.put(SPEC, TARGET, float(node), best)
        cache.flush()
        assert len(replaced) == 1
        assert len(SolveCache(cache.path)) == 32

    def test_context_manager_defers_nested_flushes(
        self, tmp_path, best, monkeypatch
    ):
        replaced = count_replaces(monkeypatch)
        cache = SolveCache(tmp_path / "c.json")
        with cache:
            for node in (32.0, 45.0):
                cache.put(SPEC, TARGET, node, best)
                cache.flush()  # the per-solve boundary flush, deferred
            assert len(replaced) == 0
        assert len(replaced) == 1
        assert len(SolveCache(cache.path)) == 2

    def test_nested_contexts_flush_at_outermost_exit(
        self, tmp_path, best, monkeypatch
    ):
        replaced = count_replaces(monkeypatch)
        cache = SolveCache(tmp_path / "c.json")
        with cache:  # batch boundary
            with cache:  # solve boundary
                cache.put(SPEC, TARGET, 32.0, best)
            assert len(replaced) == 0
        assert len(replaced) == 1

    def test_clean_context_exit_does_not_write(
        self, tmp_path, best, monkeypatch
    ):
        replaced = count_replaces(monkeypatch)
        cache = SolveCache(tmp_path / "c.json")
        with cache:
            assert cache.get(SPEC, TARGET, 32.0) is None
        assert replaced == []


class TestBatchWriteCount:
    """A whole batch of solves costs O(1) cache-file writes."""

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
        replaced = count_replaces(monkeypatch)
        specs = [
            MemorySpec(
                capacity_bytes=(16 << 10) * (i + 1),
                block_bytes=64,
                associativity=None,
                node_nm=32.0,
            )
            for i in range(24)
        ]
        cache = SolveCache(tmp_path / "c.json")
        solutions = solve_batch(specs, solve_cache=cache, jobs=1)
        assert len(solutions) == 24
        assert len(replaced) == 1
        assert len(SolveCache(cache.path)) == 24


class TestForeignVersionPreserved:
    """A cache file written by an unrecognized (likely newer) build is
    never clobbered: reads warn and load empty, writes go to a
    version-suffixed sibling."""

    def _foreign_file(self, path):
        payload = json.dumps({
            "version": "repro-solve-cache-v99",
            "records": {"future-key": {"future-field": 1}},
        })
        path.write_text(payload)
        return payload

    def test_foreign_version_warns_and_loads_empty(self, tmp_path):
        path = tmp_path / "c.json"
        self._foreign_file(path)
        with pytest.warns(UserWarning, match="unrecognized version"):
            cache = SolveCache(path)
        assert len(cache) == 0

    def test_flush_writes_sibling_not_foreign_file(self, tmp_path, best):
        path = tmp_path / "c.json"
        foreign = self._foreign_file(path)
        with pytest.warns(UserWarning):
            cache = SolveCache(path)
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        # The newer build's file is byte-identical; ours sits alongside.
        assert path.read_text() == foreign
        sibling = path.with_name(f"{path.name}.{CACHE_VERSION}")
        assert json.loads(sibling.read_text())["version"] == CACHE_VERSION
        with pytest.warns(UserWarning):
            fresh = SolveCache(path)
        assert fresh.get(SPEC, TARGET, 32.0) == best

    def test_known_older_version_still_rewritten_in_place(
        self, tmp_path, best, recwarn
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "version": "repro-solve-cache-v2",
            "records": {"deadbeef": {"rows": 64}},
        }))
        cache = SolveCache(path)  # migration path: no warning
        assert len(recwarn) == 0
        cache.put(SPEC, TARGET, 32.0, best)
        cache.flush()
        assert json.loads(path.read_text())["version"] == CACHE_VERSION
        assert sorted(q.name for q in tmp_path.iterdir()) == [
            "c.json", "c.json.lock",  # no version-suffixed sibling
        ]


class TestCorruptRecordsDropped:
    """Corrupt records are dropped on sight -- counted, never re-parsed,
    never re-persisted."""

    def _corrupt_one_record(self, path):
        payload = json.loads(path.read_text())
        key = next(iter(payload["records"]))
        del payload["records"][key]["rows"]
        path.write_text(json.dumps(payload))
        return key

    def test_truncated_record_dropped_and_counted(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        self._corrupt_one_record(path)
        cache = SolveCache(path)
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.corrupt_records == 1
        assert cache.stats()["corrupt_records"] == 1
        # Dropped, not just missed: the record is gone from memory and
        # a repeat lookup does not re-parse (the counter stays put).
        assert len(cache) == 0
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.corrupt_records == 1
        assert cache.misses == 2

    def test_flush_purges_corrupt_record_from_disk(self, tmp_path, best):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        key = self._corrupt_one_record(path)
        cache = SolveCache(path)
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.flush()
        assert key not in json.loads(path.read_text())["records"]

    def test_structurally_corrupt_record_dropped_at_load(
        self, tmp_path, best
    ):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        payload = json.loads(path.read_text())
        payload["records"]["garbage"] = "not even a dict"
        path.write_text(json.dumps(payload))
        cache = SolveCache(path)
        assert cache.corrupt_records == 1
        # The good record is untouched.
        assert cache.get(SPEC, TARGET, 32.0) == best

    def test_refresh_does_not_resurrect_dropped_records(
        self, tmp_path, best
    ):
        path = tmp_path / "c.json"
        put_and_flush(path, SPEC, TARGET, 32.0, best)
        self._corrupt_one_record(path)
        cache = SolveCache(path)
        assert cache.get(SPEC, TARGET, 32.0) is None
        cache.refresh()  # merge-on-load must honor the tombstones
        assert len(cache) == 0
        assert cache.get(SPEC, TARGET, 32.0) is None


class TestSqliteBackedSolveCache:
    """The facade behaves identically over the sqlite backend."""

    def _url(self, tmp_path, options=""):
        return f"sqlite:{tmp_path / 'c.db'}{options}"

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

    def test_url_round_trip_preserves_options(self, tmp_path):
        url = self._url(tmp_path, "?max_records=5")
        cache = SolveCache(url)
        assert cache.url == url
        assert cache.store.max_records == 5
        cache.close()

    def test_eviction_bound_through_facade(self, tmp_path, best):
        cache = SolveCache(self._url(tmp_path, "?max_records=3"))
        for node in range(32, 40):
            cache.put(SPEC, TARGET, float(node), best)
        cache.flush()
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 5
        cache.close()

    def test_older_version_records_are_misses(self, tmp_path, best):
        from repro.core.solvecache import (
            _OLDER_VERSIONS,
            metrics_to_dict,
            solve_key,
        )
        from repro.store import SqliteStore

        old = SqliteStore(tmp_path / "c.db", version=_OLDER_VERSIONS[-1])
        old.put(solve_key(SPEC, TARGET, 32.0), metrics_to_dict(best))
        old.flush()
        old.close()
        cache = SolveCache(self._url(tmp_path))
        assert cache.get(SPEC, TARGET, 32.0) is None
        assert cache.misses == 1
        cache.close()

    def test_kvstore_instance_accepted_directly(self, tmp_path, best):
        from repro.core.solvecache import open_solve_store

        store = open_solve_store(self._url(tmp_path))
        cache = SolveCache(store)
        assert cache.store is store
        cache.put(SPEC, TARGET, 32.0, best)
        assert cache.get(SPEC, TARGET, 32.0) == best
        cache.close()


class TestStoreAccounting:
    """drain_events() hands per-interval deltas to the metric sinks."""

    def test_drain_events_never_double_counts(self, tmp_path, best):
        cache = SolveCache(tmp_path / "c.json")
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

        cache = SolveCache(tmp_path / "c.json")
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
        cache = SolveCache(tmp_path / "c.json")
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
        cache = SolveCache(tmp_path / "c.json")
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
