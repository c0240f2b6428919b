"""Record-store contract tests.

Every test in ``TestContract`` runs through both spellings that open a
store -- a plain path and a ``sqlite:`` URL -- via the ``store``
fixture: the protocol (put/get/flush/stats, version stamping,
corrupt-record tombstoning, deferred flushes) must not depend on how
the store was named.  Gc and the refusal of files that are not
databases get their own class below.
"""

import json
import sqlite3

import pytest

from repro.store import SqliteStore, open_store

VERSION = "test-v2"

RECORD = {"spec": {"a": 1.5}, "org": {"b": 2}, "x": 0.1 + 0.2}

#: The two spellings of one store: a plain path and a ``sqlite:`` URL.
SPELLINGS = ("path", "sqlite")


def make_store(spelling, tmp_path, **kwargs):
    kwargs.setdefault("version", VERSION)
    path = tmp_path / "s.db"
    return open_store(path if spelling == "path" else f"sqlite:{path}",
                      **kwargs)


@pytest.fixture(params=SPELLINGS)
def spelling(request):
    return request.param


@pytest.fixture
def store(spelling, tmp_path):
    s = make_store(spelling, tmp_path)
    yield s
    s.close()


class TestContract:
    def test_get_missing_is_none(self, store):
        assert store.get("nope") is None

    def test_put_get_round_trip(self, store):
        store.put("k", RECORD)
        assert store.get("k") == RECORD

    def test_read_your_writes_before_flush(self, store):
        store.put("k", RECORD)
        # No flush yet: nothing (or only schema) on disk, record served.
        assert store.get("k") == RECORD

    def test_persists_across_instances(self, spelling, tmp_path):
        s = make_store(spelling, tmp_path)
        s.put("k", RECORD)
        s.flush()
        s.close()
        reopened = make_store(spelling, tmp_path)
        assert reopened.get("k") == RECORD
        reopened.close()

    def test_float_bit_identity_round_trip(self, spelling, tmp_path):
        """Floats survive the disk round trip bit-exactly."""
        record = {"f": 0.1 + 0.2, "tiny": 5e-324, "big": 1.7976931348623157e308}
        s = make_store(spelling, tmp_path)
        s.put("k", record)
        s.flush()
        s.close()
        reopened = make_store(spelling, tmp_path)
        got = reopened.get("k")
        assert got == record
        assert all(got[name] == record[name] for name in record)
        reopened.close()

    def test_len_counts_live_records(self, store):
        assert len(store) == 0
        store.put("a", RECORD)
        store.put("b", RECORD)
        assert len(store) == 2
        store.flush()
        store.put("b", RECORD)  # overwrite, not a new record
        assert len(store) == 2

    def test_flush_only_when_dirty(self, store):
        store.flush()
        assert store.flush_writes == 0
        store.put("k", RECORD)
        store.flush()
        store.flush()
        assert store.flush_writes == 1

    def test_context_manager_defers_flush(self, store):
        with store:
            store.put("k", RECORD)
            store.flush()
            assert store.flush_writes == 0
        assert store.flush_writes == 1

    def test_nested_contexts_flush_at_outermost_exit(self, store):
        with store:
            with store:
                store.put("k", RECORD)
                store.flush()
            assert store.flush_writes == 0
        assert store.flush_writes == 1

    def test_tombstone_hides_and_counts(self, store):
        store.put("k", RECORD)
        store.flush()
        store.tombstone("k")
        assert store.get("k") is None
        assert store.corrupt_records == 1
        assert len(store) == 0
        store.flush()
        assert len(store) == 0

    def test_put_after_tombstone_revives(self, store):
        store.put("k", RECORD)
        store.tombstone("k")
        store.put("k", RECORD)
        assert store.get("k") == RECORD
        assert store.corrupt_records == 0

    def test_validate_hook_tombstones_bad_records(self, spelling, tmp_path):
        s = make_store(
            spelling, tmp_path, validate=lambda r: "spec" in r
        )
        s.put("good", RECORD)
        s.put("bad", {"not-a-spec": 1})
        assert s.get("good") == RECORD
        assert s.get("bad") is None
        assert s.corrupt_records == 1
        assert s.stats()["corrupt_records"] == 1
        s.close()

    def test_older_version_records_not_served(self, spelling, tmp_path):
        s = make_store(spelling, tmp_path, version="test-v1")
        s.put("k", RECORD)
        s.flush()
        s.close()
        upgraded = make_store(spelling, tmp_path)
        assert upgraded.get("k") is None
        assert len(upgraded) == 0
        upgraded.close()

    def test_stats_shape(self, store):
        store.put("k", RECORD)
        store.flush()
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["corrupt_records"] == 0
        assert stats["flush_writes"] == 1
        assert stats["bytes_on_disk"] > 0

    def test_info_includes_identity(self, store):
        report = store.info()
        assert report["version"] == VERSION
        assert report["path"] == str(store.path)
        assert report["url"] == store.url

    def test_url_round_trip_opens_same_store(self, spelling, tmp_path):
        s = make_store(spelling, tmp_path)
        s.put("k", RECORD)
        s.flush()
        url = s.url
        s.close()
        reopened = open_store(url, version=VERSION)
        assert reopened.path == tmp_path / "s.db"
        assert reopened.get("k") == RECORD
        reopened.close()

    def test_gc_purges_tombstones(self, spelling, tmp_path):
        s = make_store(spelling, tmp_path)
        s.put("keep", RECORD)
        s.put("drop", RECORD)
        s.flush()
        s.tombstone("drop")
        report = s.gc()
        assert report["purged_tombstones"] == 1
        s.close()
        reopened = make_store(spelling, tmp_path)
        assert reopened.get("keep") == RECORD
        assert len(reopened) == 1
        reopened.close()

    def test_close_flushes(self, spelling, tmp_path):
        s = make_store(spelling, tmp_path)
        s.put("k", RECORD)
        s.close()
        reopened = make_store(spelling, tmp_path)
        assert reopened.get("k") == RECORD
        reopened.close()


class TestParseStoreUrl:
    def test_sqlite_scheme(self, tmp_path):
        s = open_store(f"sqlite:{tmp_path / 's.db'}", version=VERSION)
        assert s.path == tmp_path / "s.db"
        s.close()

    def test_sqlite_options(self, tmp_path, monkeypatch):
        """A store url takes no options: the removed LRU bound
        (``?max_records=``) is refused like any unknown one, and
        nothing is created."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="unknown store option"):
            open_store("sqlite:s.db?max_records=100", version=VERSION)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown store option"):
            open_store("sqlite:s.db?shard_prefix=2", version=VERSION)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="no path"):
            open_store("sqlite:", version=VERSION)

    def test_removed_json_scheme_refused(self, tmp_path, monkeypatch):
        """``json:`` named the JSON backend, which is gone: refused,
        not taken as a database literally named ``json:...``."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="json: store scheme"):
            open_store("json:solves.json", version=VERSION)
        assert list(tmp_path.iterdir()) == []

    def test_removed_json_scheme_is_a_cli_error(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "solves.json").write_text("{}")
        assert main(["cache", "--capacity", "256K",
                     "--cache", "json:solves.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "json:solves.json" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["solves.json"]
        assert (tmp_path / "solves.json").read_text() == "{}"


class TestSqliteBackend:
    def test_unbounded_hits_write_nothing(self, tmp_path):
        """Nothing reads the ``last_access_s`` stamps, so hits cost no
        write transaction and leave the stamp as the put wrote it."""
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        s.put("k", RECORD)
        s.flush()
        stamp = s._conn.execute(
            "SELECT last_access_s FROM records WHERE key='k'"
        ).fetchone()
        for _ in range(30):
            assert s.get("k") == RECORD
            s.flush()
        assert s.stats()["flush_writes"] == 1
        assert s._conn.execute(
            "SELECT last_access_s FROM records WHERE key='k'"
        ).fetchone() == stamp
        s.close()

    def test_flush_is_o_dirty_not_o_total(self, tmp_path):
        """One staged put into a populated store writes one row."""
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        with s:
            for i in range(200):
                s.put(f"k{i}", {"n": i})
        s.put("one-more", {"n": -1})
        changes_before = s._conn.total_changes
        s.flush()
        assert s._conn.total_changes - changes_before <= 2
        s.close()

    def test_versions_coexist_per_record(self, tmp_path):
        old = SqliteStore(tmp_path / "s.db", version="other-v9")
        old.put("foreign", RECORD)
        old.flush()
        old.close()
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        s.put("ours", RECORD)
        s.flush()
        assert s.get("foreign") is None
        assert len(s) == 1
        assert s.version_counts() == {"other-v9": 1, VERSION: 1}
        s.close()
        # The other version's row survived our writes.
        other = SqliteStore(tmp_path / "s.db", version="other-v9")
        assert other.get("foreign") == RECORD
        other.close()

    def test_gc_drops_other_versions(self, tmp_path):
        """Versions carry no order (older or newer): gc keeps only
        this store's."""
        for version in ("test-v1", "newer-v9"):
            s = SqliteStore(tmp_path / "s.db", version=version)
            s.put(f"at-{version}", RECORD)
            s.flush()
            s.close()
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        s.put("ours", RECORD)
        report = s.gc()
        assert report["purged_other_versions"] == 2
        assert s.version_counts() == {VERSION: 1}
        assert s.get("ours") == RECORD
        s.close()

    def test_gc_keeps_the_versions_it_is_told_to(self, tmp_path):
        """One file holds several kinds of record, each at its own
        version: gc keeps this store's rows and those in ``keep``."""
        for version in ("study-v1", "stale-v0"):
            s = SqliteStore(tmp_path / "s.db", version=version)
            s.put(f"at-{version}", RECORD)
            s.close()
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        s.put("ours", RECORD)
        report = s.gc(keep=("study-v1",))
        assert report["purged_other_versions"] == 1
        assert s.version_counts() == {VERSION: 1, "study-v1": 1}
        s.close()

    def test_corrupt_row_tombstoned_on_read(self, tmp_path):
        """A truncated row is a miss, is tombstoned on disk at the next
        flush (so no instance serves it) and is deleted by gc."""
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        s.put("k", RECORD)
        s.flush()
        s._conn.execute(
            "UPDATE records SET value='{truncated' WHERE key='k'"
        )
        s._conn.commit()
        assert s.get("k") is None
        assert s.corrupt_records == 1
        s.flush()
        fresh = SqliteStore(tmp_path / "s.db", version=VERSION)
        assert fresh.get("k") is None
        assert fresh.corrupt_records == 0  # never re-parsed
        fresh.close()
        assert s.gc()["purged_tombstones"] == 1
        assert s._conn.execute("SELECT COUNT(*) FROM records").fetchone() \
            == (0,)
        s.close()

    def test_concurrent_instances_share_rows(self, tmp_path):
        a = SqliteStore(tmp_path / "s.db", version=VERSION)
        b = SqliteStore(tmp_path / "s.db", version=VERSION)
        a.put("from-a", {"n": 1})
        a.flush()
        assert b.get("from-a") == {"n": 1}
        b.put("from-b", {"n": 2})
        b.flush()
        assert a.get("from-b") == {"n": 2}
        a.close(), b.close()

    def test_meta_rows_round_trip_and_delete(self, tmp_path):
        s = SqliteStore(tmp_path / "s.db", version=VERSION)
        assert s.get_meta("grid") is None
        s.put("k", RECORD)
        s.put_meta("grid", '{"cells": 4}')
        s.close()
        again = SqliteStore(tmp_path / "s.db", version="other")
        # Meta rows belong to the file, not to a version; the record
        # staged before the row was flushed with it.
        assert again.get_meta("grid") == '{"cells": 4}'
        assert again.version_counts() == {VERSION: 1}
        again.put_meta("grid", None)
        assert again.get_meta("grid") is None
        again.close()

    def test_unrecognized_schema_warns(self, tmp_path):
        path = tmp_path / "s.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT "
                     "NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('schema', 'weird-v9')")
        conn.commit()
        conn.close()
        with pytest.warns(UserWarning, match="schema"):
            s = SqliteStore(path, version=VERSION)
        s.close()

    def test_non_database_file_is_refused_untouched(self, tmp_path,
                                                    monkeypatch):
        """A JSON cache file from an older build is not a database: the
        open fails with the path and a remedy, leaves the file
        byte-identical and closes its connection."""
        path = tmp_path / "solves.json"
        payload = json.dumps({"version": "repro-solve-cache-v3",
                              "records": {"k": RECORD}})
        path.write_text(payload)
        opened = []
        real_connect = sqlite3.connect

        def spy(*args, **kwargs):
            opened.append(real_connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", spy)
        with pytest.raises(ValueError, match="remove it or choose"):
            SqliteStore(path, version=VERSION)
        assert path.read_text() == payload
        assert sorted(p.name for p in tmp_path.iterdir()) == ["solves.json"]
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match=str(tmp_path)):
            SqliteStore(tmp_path, version=VERSION)
