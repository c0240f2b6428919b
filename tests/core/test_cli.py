"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("32K") == 32 << 10
        assert parse_size("2M") == 2 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("1.5M") == int(1.5 * (1 << 20))

    def test_raw_integers(self):
        assert parse_size("4096") == 4096

    def test_lowercase(self):
        assert parse_size("64k") == 64 << 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_size("M")
        with pytest.raises(ValueError):
            parse_size("abc")

    def test_non_positive_rejected(self):
        for bad in ("0", "-1", "-4K", "-2M", "-1G", "0K", "-0.5M"):
            with pytest.raises(ValueError, match="positive"):
                parse_size(bad)

    def test_positive_still_accepted(self):
        assert parse_size("1") == 1
        assert parse_size("0.5K") == 512


class TestCommands:
    def test_cache(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--assoc", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "access time" in out
        assert "leakage power" in out

    def test_plain_ram(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--assoc", "0"])
        assert rc == 0

    def test_cache_lp_dram_sequential(self, capsys):
        rc = main([
            "cache", "--capacity", "1M", "--tech", "lp-dram",
            "--sequential", "--optimize", "energy-delay",
        ])
        assert rc == 0
        assert "lp-dram" in capsys.readouterr().out

    def test_main_memory(self, capsys):
        rc = main(["main-memory", "--capacity", "1G", "--node", "78"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tRCD" in out and "refresh power" in out

    def test_invalid_spec_returns_error_code(self, capsys):
        rc = main(["cache", "--capacity", "5", "--assoc", "3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--pins", "0", "data_pins"),
        ("--pins", "-8", "data_pins"),
        ("--burst", "-2", "burst_length"),
    ])
    def test_impossible_main_memory_interface_is_a_clean_error(
        self, capsys, flag, value, field
    ):
        rc = main(["main-memory", "--capacity", "1G", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field} must be >= 1, got {value}\n"

    def test_validate_ddr3(self, capsys):
        rc = main(["validate-ddr3"])
        assert rc == 0
        assert "mean |error|" in capsys.readouterr().out

    def test_infeasible_request_is_a_clean_error(self, capsys):
        """NoFeasibleSolution subclasses RuntimeError, not ValueError; it
        must still print `error: ...` and exit 2, not dump a traceback."""
        rc = main(["cache", "--capacity", "1K", "--assoc", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no feasible organization" in err

    def test_negative_capacity_is_a_clean_error(self, capsys):
        """argparse rejects the value at parse time with our message,
        not a generic 'invalid value' or a traceback from the solver."""
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--capacity=-4K"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_stats_flag_prints_sweep_stats(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidates enumerated" in out
        assert "solve cache" in out

    def test_cache_flag_creates_and_reuses_cache(self, tmp_path, capsys):
        path = tmp_path / "solves.db"
        args = ["cache", "--capacity", "256K", "--cache", str(path),
                "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert "solve cache           : 0 hits" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "solve cache           : 2 hits" in second
        # The cached run reports the same design.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]

    @pytest.mark.parametrize("kind", ["directory", "json-file"])
    def test_unwritable_cache_path_is_a_clean_error(self, tmp_path, capsys,
                                                    kind):
        """--cache naming a directory, or a file that is not a sqlite
        database (a JSON cache from an older build), is one error line
        and exit 2 -- no traceback, and the file is left as it was."""
        target = tmp_path
        if kind == "json-file":
            target = tmp_path / "old.json"
            target.write_text('{"version": "repro-solve-cache-v3", '
                              '"records": {}}')
        before = sorted(tmp_path.rglob("*"))
        payload = target.read_bytes() if target.is_file() else None
        rc = main(["cache", "--capacity", "256K",
                   "--cache", str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(target) in err and "remove it" in err
        assert sorted(tmp_path.rglob("*")) == before
        if payload is not None:
            assert target.read_bytes() == payload

    def test_cache_flag_main_memory(self, tmp_path, capsys):
        path = tmp_path / "solves.db"
        args = ["main-memory", "--capacity", "1G", "--node", "78",
                "--cache", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestObservabilityFlags:
    """--trace and --metrics on every subcommand."""

    def test_cache_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "cache", "--capacity", "256K",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        span_names = [e["name"] for e in doc["traceEvents"]]
        for expected in ("solve", "data_array", "tag_array", "optimize",
                         "prefilter", "build", "rank"):
            assert expected in span_names, expected
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["optimizer.feasible"] > 0
        assert "eval_cache.subarray.hit_rate" in snap["derived"]

    def test_metrics_report_solve_cache_hit_rate(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        cache = tmp_path / "solves.db"
        args = ["cache", "--capacity", "256K",
                "--cache", str(cache), "--metrics", str(metrics)]
        assert main(args) == 0
        cold = json.loads(metrics.read_text())
        assert cold["derived"]["solve_cache.hit_rate"] == 0.0
        assert main(args) == 0
        warm = json.loads(metrics.read_text())
        assert warm["derived"]["solve_cache.hit_rate"] == 1.0

    def test_validate_ddr3_takes_solver_knobs(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        rc = main(["validate-ddr3", "--stats", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean |error|" in out
        assert "candidates enumerated" in out
        span_names = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
        }
        assert "solve_main_memory" in span_names
        assert "derive_interface" in span_names

    def test_table3_passes_knobs_through(self, tmp_path, capsys,
                                          monkeypatch):
        """table3 accepts the shared solver knobs and forwards them."""
        import json

        import repro.study.table3 as table3_module
        from repro.core.solvecache import SolveCache
        from repro.obs import Obs

        seen = {}

        def fake_solve_table3(**knobs):
            seen.update(knobs)
            return {"L1": table3_module.paper_table3()["L1"]}

        monkeypatch.setattr(
            table3_module, "solve_table3", fake_solve_table3
        )
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "table3", "--stats",
            "--cache", str(tmp_path / "solves.db"),
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        assert isinstance(seen["solve_cache"], SolveCache)
        # --stats, --trace and --metrics read the one telemetry sink.
        assert isinstance(seen["obs"], Obs)
        assert seen["obs"].tracer is not None
        # The CLI passes every knob.
        assert set(seen) == {"solve_cache", "obs"}
        assert "L1" in capsys.readouterr().out
        json.loads(trace.read_text())
        json.loads(metrics.read_text())

    def test_validate_zero_target_is_a_clean_error(self, capsys,
                                                   monkeypatch):
        """A zero published target must exit 2 with a message, not dump
        a ZeroDivisionError traceback."""
        import dataclasses

        from repro.validation import compare, targets

        bad = dataclasses.replace(targets.DDR3_TARGET, e_read=0.0)
        monkeypatch.setattr(compare, "DDR3_TARGET", bad)
        rc = main(["validate-ddr3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "zero target" in err


class TestResilienceFlags:
    def test_sweep_command(self, capsys):
        rc = main([
            "sweep", "--capacity", "256K", "--parameter", "capacity_bytes",
            "--values", "128K,256K",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "access=" in out

    def test_sweep_rejects_bad_parameter(self, capsys):
        rc = main([
            "sweep", "--capacity", "256K", "--parameter", "colour",
            "--values", "1,2",
        ])
        assert rc == 2
        assert "cannot sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("banks", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["cache", "--capacity", "2M", "--banks"],
        ["main-memory", "--capacity", "1G", "--banks"],
        ["sweep", "--capacity", "256K", "--parameter", "nbanks",
         "--values"],
    ], ids=["cache", "main-memory", "sweep"])
    def test_bank_count_below_one_is_a_clean_error(self, capsys, command,
                                                   banks):
        rc = main(command + [banks])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"nbanks must be >= 1, got {banks}" in err

    @pytest.mark.parametrize("scale", ["0", "-4"])
    def test_study_bad_scale_is_a_clean_error(self, capsys, scale):
        rc = main([
            "study", "--apps", "ua.C", "--configs", "nol3",
            "--instructions", "1000", "--scale", scale,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "scale must be at least 1" in err

    def test_study_command(self, capsys):
        rc = main([
            "study", "--apps", "ua.C", "--configs", "nol3,sram",
            "--instructions", "4000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nol3" in out and "sram" in out
        assert "execution reduction" in out

    def test_study_rejects_unknown_app(self, capsys):
        rc = main(["study", "--apps", "nope", "--instructions", "1000"])
        assert rc == 2
        assert "unknown app" in capsys.readouterr().err

    def test_sweep_resumes_from_its_store(self, tmp_path, capsys):
        argv = [
            "sweep", "--capacity", "256K", "--parameter", "capacity_bytes",
            "--values", "128K,256K", "--cache", str(tmp_path / "sw.db"),
            "--stats",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out.split("\n\n")[0]
        # Second run is served both points: same output, nothing solved.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n")[0] == first
        assert "candidates enumerated : 0" in out

    def test_on_error_skip_reports_failures(self, capsys):
        # An impossible per-task timeout is the simplest way to make
        # every parallel task fail from the CLI (two cells, so the map
        # actually goes parallel -- in-process tasks can't be preempted).
        rc = main([
            "study", "--apps", "ua.C", "--configs", "nol3,sram",
            "--instructions", "2000", "--jobs", "2",
            "--on-error", "skip", "--task-timeout", "0.001",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "task(s) failed" in err

    def test_bad_on_error_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--on-error", "explode"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_table3_resume_restores_finished_rows(self, tmp_path, capsys):
        """Rerun against the same --cache, every row comes back from the
        store: the same table, and no candidate enumerated."""
        argv = ["table3", "--cache", str(tmp_path / "t3.db"), "--stats"]
        assert main(argv) == 0
        first = capsys.readouterr().out.split("\n\n")[0]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n")[0] == first
        assert "candidates enumerated : 0" in out


class TestSingleSolveFlags:
    """A single solve runs in-process: the worker-pool and per-task
    fault-tolerance flags exist only on the multi-task subcommands.
    Solves resume from their store, so only ``study`` takes
    ``--resume``, and a study, whose one Table 3 is memoized, takes no
    ``--cache``."""

    @pytest.mark.parametrize("argv", [
        ["cache", "--capacity", "256K", "--jobs", "2"],
        ["main-memory", "--capacity", "1G", "--jobs", "2"],
        ["validate-ddr3", "--jobs", "2"],
        ["table3", "--jobs", "2"],
        ["cache", "--capacity", "256K", "--on-error", "skip"],
        ["main-memory", "--capacity", "1G", "--retries", "3"],
        ["table3", "--task-timeout", "5"],
        ["cache", "--capacity", "256K", "--resume", "j.journal"],
        ["main-memory", "--capacity", "1G", "--resume", "j.journal"],
        ["table3", "--resume", "j.journal"],
        ["sweep", "--capacity", "256K", "--parameter", "capacity_bytes",
         "--values", "128K", "--resume", "j.journal"],
        ["cachedb", "build", "g.db", "--capacities", "64K",
         "--resume", "j.journal"],
        ["study", "--apps", "ft.B", "--cache", "s.db"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCacheStoreCli:
    """--cache sqlite: URLs and the cache {info,gc} subcommands."""

    def _solve(self, store, tmp_path, extra=()):
        return ["cache", "--capacity", "64K", "--cache", store, *extra]

    def test_sqlite_cache_flag_creates_and_reuses(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}"
        args = self._solve(url, tmp_path)
        assert main(args) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "solves.db").exists()
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_cache_info_sqlite(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}"
        assert main(self._solve(url, tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "info", url]) == 0
        out = capsys.readouterr().out
        assert "sqlite:" in out and "versions" in out
        assert "repro-solve-cache-v3': 2" in out

    def test_cache_gc_removes_other_version_rows(self, tmp_path, capsys):
        from repro.store import SqliteStore

        path = tmp_path / "solves.db"
        assert main(self._solve(str(path), tmp_path)) == 0
        other = SqliteStore(path, version="repro-solve-cache-v2")
        other.put("stale", {"spec": {}, "org": {}})
        other.close()
        capsys.readouterr()
        assert main(["cache", "gc", str(path)]) == 0
        out = capsys.readouterr().out
        assert "purged_other_versions: 1" in out
        assert main(["cache", "info", str(path)]) == 0
        assert "{'repro-solve-cache-v3': 2}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["info", "gc"])
    @pytest.mark.parametrize("url", ["{path}", "sqlite:{path}?max_records=8"])
    def test_missing_store_is_refused_not_created(
        self, command, url, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        spec = url.format(path="missing.db")
        assert main(["cache", command, spec]) == 2
        assert "no solve store at missing.db" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cache_migrate_is_not_a_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "migrate", str(tmp_path / "a"),
                  str(tmp_path / "b")])
        assert exc.value.code == 2

    def test_solve_without_capacity_is_clean_error(self, capsys):
        assert main(["cache"]) == 2
        err = capsys.readouterr().err
        assert "--capacity" in err

    def test_bad_store_option_is_clean_error(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}?bogus=1"
        assert main(self._solve(url, tmp_path)) == 2
        assert "unknown store option" in capsys.readouterr().err
