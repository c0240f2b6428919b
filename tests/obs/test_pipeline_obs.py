"""End-to-end observability: spans and metrics through real solves.

Covers the span taxonomy of a full solve, worker-span stitching of
batch solves at jobs {1, 2}, machine-readable run reports, and the
instrumented sensitivity sweep.  The numeric side of the determinism
contract lives in tests/core/test_golden_equivalence.py.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.array.mainmem import MainMemorySpec
from repro.core import cacti
from repro.core.cacti import solve, solve_batch, solve_main_memory
from repro.core.config import MemorySpec
from repro.core.optimizer import SweepStats
from repro.obs import Obs
from repro.study import sensitivity

SPEC = MemorySpec(
    capacity_bytes=64 << 10, block_bytes=64, associativity=8, node_nm=32.0
)

BATCH = [
    SPEC,
    MemorySpec(capacity_bytes=128 << 10, block_bytes=64, associativity=8,
               node_nm=32.0),
]


def names(obs: Obs) -> list:
    return [d["name"] for d in obs.tracer.to_dicts()]


class TestSolveSpanTaxonomy:
    @pytest.fixture(scope="class")
    def obs(self):
        obs = Obs()
        solve(SPEC, obs=obs)
        return obs

    def test_span_tree(self, obs):
        spans = {d["name"]: d for d in obs.tracer.to_dicts()}
        by_id = {d["id"]: d for d in spans.values()}

        def parent_name(name):
            parent = spans[name]["parent"]
            return None if parent is None else by_id[parent]["name"]

        assert parent_name("solve") is None
        assert parent_name("data_array") == "solve"
        assert parent_name("tag_array") == "solve"
        # Both arrays run an optimize with prefilter/build/rank inside.
        assert names(obs).count("optimize") == 2
        assert names(obs).count("prefilter") == 2
        assert names(obs).count("build") == 2
        assert names(obs).count("rank") == 2

    def test_counters_balance(self, obs):
        c = obs.metrics.snapshot()["counters"]
        assert (
            c["optimizer.enumerated"]
            == c["optimizer.prefiltered"] + c["optimizer.built"]
        )
        assert c["optimizer.feasible"] > 0

    def test_derived_eval_cache_rates(self, obs):
        derived = obs.metrics.snapshot()["derived"]
        assert 0.0 < derived["eval_cache.subarray.hit_rate"] <= 1.0

    def test_phase_latency_histograms(self, obs):
        h = obs.metrics.snapshot()["histograms"]
        for phase_name in ("phase.prefilter_s", "phase.build_s",
                           "phase.rank_s"):
            assert h[phase_name]["count"] == 2  # data + tag arrays
            assert h[phase_name]["sum"] >= 0.0


class TestWorkerStitching:
    def test_serial_trace_is_single_process(self):
        obs = Obs()
        solve_batch(BATCH, obs=obs, jobs=1)
        assert {d["pid"] for d in obs.tracer.to_dicts()} == {os.getpid()}

    def test_parallel_trace_stitches_worker_spans(self):
        obs = Obs()
        solve_batch(BATCH, obs=obs, jobs=2)
        spans = obs.tracer.to_dicts()
        solve_pids = {d["pid"] for d in spans if d["name"] == "solve"}
        assert solve_pids, "workers shipped no solve spans home"
        assert os.getpid() not in solve_pids
        # Worker sweep metrics land in the parent registry; worker
        # phase clocks stay off the parent's wall-clock phases.
        snap = obs.metrics.snapshot()
        assert snap["histograms"]["worker.phase.build_s"]["count"] == 4
        assert "phase.build_s" not in snap["histograms"]
        assert snap["gauges"]["parallel.worker_utilization"] is not None

    def test_worker_utilization_counts_started_workers(self, monkeypatch):
        """Two specs start two workers however many jobs are allowed, so
        utilization is worker time over two workers' share of the wall
        clock (here a fake clock reading 4 s)."""
        clock = iter([100.0, 104.0])
        monkeypatch.setattr(cacti, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        obs = Obs()
        solve_batch(BATCH, obs=obs, jobs=8)
        worker_s = SweepStats(obs.metrics).worker_time_s
        assert worker_s > 0
        assert obs.metrics.snapshot()["gauges"][
            "parallel.worker_utilization"] == pytest.approx(
                worker_s / (4.0 * 2))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_identical_at_any_job_count(self, jobs):
        obs = Obs()
        solve_batch(BATCH, obs=obs, jobs=jobs)
        # The sweep work is the same; only who does it changes (cache
        # hit counts do depend on which process shares which cache).
        serial = Obs()
        for spec in BATCH:
            solve(spec, obs=serial)

        def sweep_counters(o):
            # Event counts only: ``optimizer.wall_s`` is a clock reading.
            return {
                name: value
                for name, value in o.metrics.snapshot()["counters"].items()
                if name.startswith("optimizer.") and not name.endswith("_s")
            }

        assert sweep_counters(obs) == sweep_counters(serial)
        assert sweep_counters(obs)["optimizer.feasible"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_span_and_worker_absorption(self, jobs):
        obs = Obs()
        solutions = solve_batch(BATCH, obs=obs, jobs=jobs)
        assert len(solutions) == 2
        assert "batch" in names(obs)
        assert obs.metrics.snapshot()["counters"]["optimizer.feasible"] > 0


class TestRunReports:
    def test_cache_report(self):
        solution = solve(SPEC)
        report = solution.run_report()
        json.dumps(report)  # plain JSON types only
        assert report["kind"] == "cache"
        assert report["spec"]["capacity_bytes"] == SPEC.capacity_bytes
        assert report["metrics"]["access_time_ns"] == (
            solution.access_time_ns
        )
        assert report["organization"]["rows"] == solution.data.rows
        assert report["tag"]["area_mm2"] > 0

    def test_ram_report_has_no_tag(self):
        ram = MemorySpec(
            capacity_bytes=64 << 10, block_bytes=64, associativity=None,
            node_nm=32.0,
        )
        report = solve(ram).run_report()
        assert report["kind"] == "ram"
        assert "tag" not in report

    def test_main_memory_report(self):
        solution = solve_main_memory(
            MainMemorySpec(capacity_bits=1 << 30), node_nm=78.0
        )
        report = solution.run_report()
        json.dumps(report)
        assert report["kind"] == "main_memory"
        assert report["timing_ns"]["t_rcd"] > 0
        assert report["energy_nj"]["e_activate"] > 0
        assert report["power_mw"]["p_refresh"] > 0
        assert report["area_mm2"] > 0


class TestSweepObservability:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_spans_and_counters(self, jobs):
        base = MemorySpec(
            capacity_bytes=32 << 10, block_bytes=64, associativity=8,
            node_nm=32.0,
        )
        obs = Obs()
        result = sensitivity.sweep(
            base,
            "capacity_bytes",
            [32 << 10, 64 << 10],
            jobs=jobs,
            obs=obs,
        )
        assert len(result.points) == 2
        assert "sweep" in names(obs)
        if jobs == 1:
            assert names(obs).count("sweep.point") == 2
        c = obs.metrics.snapshot()["counters"]
        assert c["sensitivity.points"] == 2
        assert c["sensitivity.feasible_points"] == 2
