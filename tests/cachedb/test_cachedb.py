"""Unit tests for the precomputed design-space database."""

import gc
import json
import weakref

import pytest

from repro.cachedb import (
    CacheDB,
    CacheDBError,
    CacheDBMiss,
    GridSpec,
    build_cachedb,
    grid_spec_for,
)
from repro.array.kernels import SurvivorBatch
from repro.array.organization import EvalCache
from repro.cachedb.schema import DB_METRICS
from repro.cli import main
from repro.core import parallel
from repro.core.cacti import CactiD, data_array_spec, solve, tag_array_spec
from repro.core.config import OptimizationTarget
from repro.core.optimizer import SweepStats
from repro.core import solvecache
from repro.core.solvecache import CACHE_VERSION, SolveCache, metrics_to_dict
from repro.obs import Obs
from repro.tech.registry import registered_names

CAPS = (64 << 10, 256 << 10)
NODES = (32.0, 45.0)


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cachedb") / "db.json"
    grid = GridSpec(
        capacities_bytes=CAPS, nodes_nm=NODES, technologies=("sram",)
    )
    report = build_cachedb(path, grid, jobs=1)
    assert report.solved == len(grid) == 4
    return path


@pytest.fixture()
def db(db_path):
    return CacheDB(db_path)


def put_args():
    """One solve record's ``SolveCache.put`` arguments."""
    spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
    solution = solve(spec)
    return (data_array_spec(spec), OptimizationTarget(), 32.0,
            solution.data)


class TestGridSpec:
    def test_axes_deduped_and_sorted(self):
        grid = GridSpec(
            capacities_bytes=(1 << 20, 1 << 16, 1 << 20),
            nodes_nm=(45, 32.0, 45.0),
            technologies=("sram",),
        )
        assert grid.capacities_bytes == (1 << 16, 1 << 20)
        assert grid.nodes_nm == (32.0, 45.0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one capacity"):
            GridSpec(capacities_bytes=())

    def test_node_outside_itrs_range_rejected(self):
        with pytest.raises(ValueError, match="outside modeled ITRS"):
            GridSpec(capacities_bytes=(1 << 16,), nodes_nm=(22.0,))

    def test_unknown_technology_rejected_with_registered_list(self):
        with pytest.raises(ValueError, match="sram"):
            GridSpec(
                capacities_bytes=(1 << 16,), technologies=("no-such-tech",)
            )

    def test_default_technologies_is_whole_registry(self):
        grid = GridSpec(capacities_bytes=(1 << 16,))
        assert grid.technologies == registered_names()

    def test_len_is_axis_product(self):
        grid = GridSpec(
            capacities_bytes=CAPS,
            nodes_nm=NODES,
            associativities=(4, 8),
            technologies=("sram", "stt-ram"),
        )
        assert len(grid) == 2 * 2 * 2 * 2
        assert len(list(grid.points())) == len(grid)


class TestBuilder:
    def test_infeasible_cells_become_holes(self, tmp_path):
        # 256 B cannot hold one 8-way set of 64 B blocks.
        grid = GridSpec(
            capacities_bytes=(256, 64 << 10), technologies=("sram",)
        )
        report = build_cachedb(tmp_path / "db.json", grid, jobs=1)
        assert report.solved == 1 and report.holes == 1
        db = CacheDB(tmp_path / "db.json")
        with pytest.raises(CacheDBMiss, match="hole"):
            db.query(256, fallback="error")

    def test_cachedb_is_a_solve_store(self, db_path):
        """Every solved cell's data and tag records sit in the store
        under their solve keys: a plain SolveCache serves them."""
        store = SolveCache(db_path)
        try:
            assert len(store) == 2 * 4
            spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
            solved = CacheDB(db_path).lookup_exact(spec)
            target = OptimizationTarget()
            assert store.get(data_array_spec(spec), target, 32.0) == (
                solved.data
            )
            assert store.get(tag_array_spec(spec), target, 32.0) == (
                solved.tag
            )
        finally:
            store.close()

    def test_killed_build_is_refused_as_incomplete(self, tmp_path,
                                                   monkeypatch):
        from repro.cachedb import builder

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        path = tmp_path / "db.json"
        grid = GridSpec(capacities_bytes=CAPS, technologies=("sram",))
        build_cachedb(path, grid, jobs=1)
        monkeypatch.setattr(builder, "solve_batch", killed)
        with pytest.raises(KeyboardInterrupt):
            build_cachedb(path, grid, jobs=1)
        with pytest.raises(CacheDBError, match="did not finish"):
            CacheDB(path)

    def test_rebuild_into_the_same_path_reuses_its_records(self, tmp_path):
        path = tmp_path / "db.json"
        grid = GridSpec(capacities_bytes=CAPS, technologies=("sram",))
        first = build_cachedb(path, grid, jobs=1)
        obs = Obs()
        again = build_cachedb(path, grid, jobs=1, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert (again.solved, again.holes) == (first.solved, first.holes)
        assert counters["store.hits"] == 2 * first.solved
        assert counters.get("optimizer.enumerated", 0) == 0

    def test_serial_build_keeps_no_subarray_memo(self, tmp_path,
                                                 monkeypatch):
        """At ``jobs=1`` the worker tasks run in the parent; their
        EvalCache -- subarray terms and survivor batches alike -- lives
        for the build, not for the process."""
        monkeypatch.setattr(parallel, "_WORKER_EVAL_CACHE", None)
        caches, batches = [], []

        def tracking(cls, refs):
            init = cls.__init__

            def track(self, *args, **kwargs):
                init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", track)

        tracking(EvalCache, caches)
        tracking(SurvivorBatch, batches)
        grid = GridSpec(capacities_bytes=CAPS, technologies=("sram",))
        report = build_cachedb(tmp_path / "db.json", grid, jobs=1)
        assert report.solved == 2 and caches and batches
        gc.collect()
        assert all(ref() is None for ref in caches)
        assert all(ref() is None for ref in batches)
        assert parallel._WORKER_EVAL_CACHE is None

    def test_resumed_build_restores_solved_cells(self, tmp_path):
        """The store is the build's checkpoint: a rebuild into the same
        path serves every cell it holds and solves nothing."""
        grid = GridSpec(capacities_bytes=CAPS, technologies=("sram",))
        first = build_cachedb(tmp_path / "db.db", grid, jobs=1)
        assert first.solved == 2
        obs = Obs(trace=False)
        again = build_cachedb(tmp_path / "db.db", grid, jobs=1, obs=obs)
        assert again.solved == 2
        stats = SweepStats(obs.metrics)
        assert (stats.solve_cache_hits, stats.enumerated) == (4, 0)


class TestReader:
    def test_exact_hit_counts_and_flags(self, db):
        result = db.query(CAPS[0], node_nm=32.0)
        assert result.source == "exact" and not result.interpolated
        assert db.stats()["hits"] == 1 and len(db) == 4

    def test_exact_hit_metrics_are_the_cell_solutions(self, db):
        solution = db.lookup_exact(grid_spec_for("sram", 32.0, CAPS[0],
                                                 64, 8))
        assert db.query(CAPS[0], node_nm=32.0).metrics == {
            name: extract(solution) for name, extract in DB_METRICS.items()
        }

    def test_interpolated_query_is_flagged(self, db):
        result = db.query(128 << 10, node_nm=38.0)
        assert result.interpolated and result.source == "interpolated"
        assert result.solution is None
        assert db.stats()["interpolated"] == 1

    def test_fallback_error_raises_out_of_range(self, db):
        with pytest.raises(CacheDBMiss, match="outside grid range"):
            db.query(1 << 30, fallback="error")

    def test_fallback_nearest_snaps_to_grid(self, db):
        result = db.query(1 << 30, fallback="nearest")
        assert result.source == "nearest"
        assert result.capacity_bytes == CAPS[-1]
        assert db.stats()["fallbacks"] == 1

    def test_fallback_solve_matches_live_solve(self, db):
        result = db.query(32 << 10, fallback="solve")
        assert result.source == "solve" and not result.interpolated
        live = solve(grid_spec_for("sram", 32.0, 32 << 10, 64, 8))
        assert metrics_to_dict(result.solution.data) == metrics_to_dict(
            live.data
        )
        assert result.metrics == {
            name: extract(live) for name, extract in DB_METRICS.items()
        }

    def test_unknown_fallback_rejected(self, db):
        with pytest.raises(CacheDBError, match="unknown fallback"):
            db.query(CAPS[0], fallback="guess")

    def test_off_grid_discrete_axis_falls_back(self, db):
        with pytest.raises(CacheDBMiss, match="associativity"):
            db.query(CAPS[0], associativity=4, fallback="error")

    def test_old_json_artifact_is_refused_untouched(self, tmp_path,
                                                    capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "repro-cachedb-v1", "points": {}, "holes": {},
        }))
        before = path.read_bytes()
        with pytest.raises(CacheDBError, match="rebuilt"):
            CacheDB(path)
        assert main(["cachedb", "query", str(path),
                     "--capacity", "64K"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_missing_file_is_refused_and_not_created(self, tmp_path):
        with pytest.raises(CacheDBError, match="no cachedb"):
            CacheDB(tmp_path / "absent.db")
        assert list(tmp_path.iterdir()) == []

    def test_store_without_meta_row_is_refused(self, tmp_path):
        """A plain solve store -- or a build that never finished -- is
        not a cachedb."""
        path = tmp_path / "solves.db"
        store = SolveCache(path)
        store.put(*put_args())
        store.close()
        with pytest.raises(CacheDBError, match="not a complete cachedb"):
            CacheDB(path)

    def test_rows_at_another_version_are_never_served(
        self, db_path, monkeypatch, capsys
    ):
        """A cachedb built by another model serves none of its records:
        on-grid queries take the fallback, and ``info`` shows them."""
        monkeypatch.setattr(solvecache, "CACHE_VERSION", "other-model")
        db = CacheDB(db_path)
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        with pytest.raises(CacheDBMiss, match="no record"):
            db.query(CAPS[0], node_nm=32.0, fallback="error")
        assert db.lookup_exact(spec) is None
        assert db.hits == 0 and db.misses == 1
        info = db.info()
        assert info["version"] == "other-model"
        assert info["records"] == {CACHE_VERSION: 8}
        assert main(["cachedb", "info", str(db_path)]) == 0
        assert f"{{'{CACHE_VERSION}': 8}}" in capsys.readouterr().out


class TestSolveIntegration:
    def test_lookup_exact_counts_obs_metrics(self, db):
        obs = Obs()
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        assert db.lookup_exact(spec, obs=obs) is not None
        off_spec = grid_spec_for("sram", 32.0, 32 << 10, 64, 8)
        assert db.lookup_exact(off_spec, obs=obs) is None
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["cachedb.hits"] == 1
        assert snapshot["counters"]["cachedb.misses"] == 1

    def test_lookup_exact_misses_on_different_target(self, db):
        from repro.core.config import DENSITY_OPTIMIZED

        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        assert db.lookup_exact(spec, DENSITY_OPTIMIZED) is None

    def test_lookup_exact_misses_on_off_grid_knobs(self, db):
        import dataclasses

        spec = dataclasses.replace(
            grid_spec_for("sram", 32.0, CAPS[0], 64, 8), ecc=True
        )
        assert db.lookup_exact(spec) is None

    def test_solve_served_from_cachedb_bit_identically(self, db):
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        live = solve(spec)
        before = db.hits
        served = solve(spec, cachedb=db)
        assert db.hits == before + 1
        assert metrics_to_dict(served.data) == metrics_to_dict(live.data)
        assert metrics_to_dict(served.tag) == metrics_to_dict(live.tag)

    def test_cactid_accepts_cachedb_path(self, db_path):
        facade = CactiD(cachedb=db_path)
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        solution = facade.solve(spec, OptimizationTarget())
        assert facade.cachedb.hits == 1
        assert solution.spec == spec


class TestCli:
    def test_build_query_info_round_trip(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        assert main([
            "cachedb", "build", str(path),
            "--capacities", "64K,128K", "--techs", "sram",
            "--jobs", "1",
        ]) == 0
        assert "solved          : 2" in capsys.readouterr().out

        assert main([
            "cachedb", "query", str(path), "--capacity", "64K",
        ]) == 0
        assert "source          : exact" in capsys.readouterr().out

        assert main([
            "cachedb", "query", str(path), "--capacity", "96K",
            "--fallback", "error",
        ]) == 0
        assert "interpolated    : yes" in capsys.readouterr().out

        assert main(["cachedb", "info", str(path)]) == 0
        assert "points        : 2" in capsys.readouterr().out

    def test_rebuild_into_the_same_path_solves_nothing(
        self, tmp_path, capsys
    ):
        argv = [
            "cachedb", "build", str(tmp_path / "db.db"),
            "--capacities", "64K,128K", "--techs", "sram", "--jobs", "1",
            "--stats",
        ]
        assert main(argv) == 0
        assert "candidates enumerated : 0" not in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "solved          : 2" in out
        assert "candidates enumerated : 0" in out

    def test_build_records_holes_under_a_task_timeout(
        self, tmp_path, capsys
    ):
        """``--on-error`` defaults to skip on a build, so a flag that
        builds a policy keeps infeasible cells as holes."""
        argv = [
            "cachedb", "build", str(tmp_path / "m.db"),
            "--capacities", "64K,128M", "--techs", "stt-ram",
            "--nodes", "32", "--assocs", "4", "--blocks", "32",
            "--jobs", "1",
        ]
        for extra in ([], ["--task-timeout", "60"]):
            assert main(argv + extra) == 0
            assert "holes           : 1" in capsys.readouterr().out

    def test_build_takes_no_cache_flag(self, tmp_path, capsys):
        """The cachedb is its own store: there is no second one."""
        with pytest.raises(SystemExit) as exc:
            main([
                "cachedb", "build", str(tmp_path / "db.json"),
                "--capacities", "64K", "--cache", str(tmp_path / "s.db"),
            ])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_query_fallback_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        main([
            "cachedb", "build", str(path),
            "--capacities", "64K", "--techs", "sram", "--jobs", "1",
        ])
        capsys.readouterr()
        assert main([
            "cachedb", "query", str(path), "--capacity", "1G",
            "--fallback", "error",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_subcommand_consults_cachedb(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "db.json"
        main([
            "cachedb", "build", str(path),
            "--capacities", "64K", "--techs", "sram", "--jobs", "1",
        ])
        capsys.readouterr()

        def boom(*args, **kwargs):  # the solver must not run on a hit
            raise AssertionError("solver invoked despite cachedb hit")

        from repro.core import cacti

        monkeypatch.setattr(cacti, "optimize", boom)
        assert main([
            "cache", "--capacity", "64K", "--cachedb", str(path),
        ]) == 0
        assert "64 KB" in capsys.readouterr().out


class TestForkedWorkers:
    """A forked pool worker never touches a reader -- or its sqlite
    connection -- that the parent opened."""

    def test_init_worker_parks_the_parents_readers(self, db_path,
                                                   monkeypatch):
        from repro.cachedb import open_cachedb, reader

        for name in ("_WORKER_EVAL_CACHE", "_WORKER_SOLVE_CACHES",
                     "_PARENT_OBS"):
            monkeypatch.setattr(parallel, name, getattr(parallel, name))
        monkeypatch.setattr(parallel, "_INHERITED_DBS", [])
        monkeypatch.setattr(reader, "_OPEN_DBS", {})
        parent = open_cachedb(db_path)
        parallel._init_worker()
        assert reader._OPEN_DBS == {}
        assert parallel._INHERITED_DBS == [{str(db_path): parent}]
        assert open_cachedb(db_path) is not parent

    def test_pooled_study_equals_serial_with_a_parent_reader_open(
        self, tmp_path, monkeypatch
    ):
        from repro.cachedb import open_cachedb, reader
        from repro.study import runner, table3
        from repro.workloads.npb import UA_C

        path = tmp_path / "l1-l2.db"
        grid = GridSpec(capacities_bytes=(32 << 10, 1 << 20),
                        technologies=("sram",))
        build_cachedb(path, grid, jobs=1)
        monkeypatch.setattr(reader, "_OPEN_DBS", {})
        parent = open_cachedb(path)
        kwargs = dict(profiles=(UA_C,), configs=("nol3", "sram"),
                      source="cacti", instructions_per_thread=2000,
                      cachedb=path)
        runs = {}
        for jobs in (1, 2):
            # A table memoized by an earlier run would spare the
            # workers their cachedb lookups.
            monkeypatch.setattr(table3, "_MEMO", {})
            runs[jobs] = runner.run_study(jobs=jobs, **kwargs)
        assert parent.hits > 0  # the serial run was served by it
        assert runs[2].results == runs[1].results
