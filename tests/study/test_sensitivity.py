"""Tests for the sensitivity-analysis tooling."""

import pytest

from repro.core.config import MemorySpec
from repro.core.optimizer import NoFeasibleSolution
from repro.study.sensitivity import capacity_sweep, sweep
from repro.tech.cells import CellTech

BASE = MemorySpec(capacity_bytes=256 << 10, block_bytes=64, associativity=8,
                  node_nm=32.0)


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="cannot sweep"):
            sweep(BASE, "colour", [1, 2])

    def test_infeasible_points_are_none(self):
        result = sweep(BASE, "capacity_bytes", [997, 256 << 10])
        assert result.points[0].solution is None
        assert result.points[1].solution is not None

    def test_all_infeasible_raises(self):
        with pytest.raises(NoFeasibleSolution):
            sweep(BASE, "capacity_bytes", [997, 1003])

    def test_series_skips_infeasible(self):
        result = sweep(BASE, "capacity_bytes", [997, 256 << 10, 512 << 10])
        assert len(result.series("area")) == 2


class TestCapacityScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return capacity_sweep(BASE, factors=(1, 2, 4, 8))

    def test_area_scales_near_linearly(self, result):
        """Cache area tracks capacity; slightly sublinear because fixed
        overheads (decode strips, H-trees, the tag array) amortize."""
        e = result.elasticity("area")
        assert 0.7 < e < 1.2

    def test_leakage_scales_linearly(self, result):
        e = result.elasticity("p_leakage")
        assert 0.7 < e < 1.3

    def test_access_time_sublinear(self, result):
        """Latency grows much slower than capacity (wires ~ sqrt)."""
        e = result.elasticity("access_time")
        assert 0.0 < e < 0.7

    def test_report_renders(self, result):
        text = result.report()
        assert "elasticity" in text and "capacity_bytes" in text


class TestNodeScaling:
    def test_smaller_node_smaller_area(self):
        result = sweep(BASE, "node_nm", [90.0, 65.0, 45.0, 32.0])
        series = result.series("area")
        areas = [m for _, m in series]
        assert areas == sorted(areas, reverse=True)

    def test_dram_refresh_insensitive_to_node(self):
        base = MemorySpec(capacity_bytes=4 << 20, block_bytes=64,
                          associativity=8, node_nm=32.0,
                          cell_tech=CellTech.LP_DRAM)
        result = sweep(base, "node_nm", [65.0, 45.0, 32.0])
        e = result.elasticity("p_refresh")
        assert e is not None
        # Retention and storage cap are node-invariant; refresh power
        # tracks page energy, which moves far less than quadratically.
        assert abs(e) < 3.0


class TestSweepResilience:
    def test_skip_mode_records_failed_points(self):
        from repro.core.resilience import (
            FaultPlan,
            FaultSpec,
            ResiliencePolicy,
            TaskFailure,
        )

        # Point 1 fails under skip: it lands as an
        # infeasible-looking None with a TaskFailure record, and the
        # other points still solve.
        policy = ResiliencePolicy(
            on_error="skip",
            fault_plan=FaultPlan(
                (FaultSpec("sweep.point", 1, "raise"),)
            ),
        )
        result = sweep(
            BASE,
            "capacity_bytes",
            [128 << 10, 256 << 10, 512 << 10],
            resilience=policy,
        )
        assert result.points[0].solution is not None
        assert result.points[1].solution is None
        assert result.points[2].solution is not None
        assert len(result.failed) == 1
        assert isinstance(result.failed[0], TaskFailure)
        assert result.failed[0].stage == "sweep.point"

    def test_resumed_sweep_matches_plain_sweep(self, tmp_path):
        """The solve store is a sweep's checkpoint: an interrupted
        serial sweep keeps its finished points, and the rerun against
        the same store is served them."""
        import dataclasses

        from repro.core.optimizer import SweepStats
        from repro.core.resilience import (
            FaultInjected,
            FaultPlan,
            FaultSpec,
            ResiliencePolicy,
        )
        from repro.core.solvecache import SolveCache
        from repro.obs import Obs

        values = [128 << 10, 256 << 10]
        store = SolveCache(tmp_path / "sweep.db")
        interrupted = ResiliencePolicy(fault_plan=FaultPlan(
            (FaultSpec("sweep.point", 1, "raise"),)
        ))
        with pytest.raises(FaultInjected):
            sweep(BASE, "capacity_bytes", values, solve_cache=store,
                  jobs=1, resilience=interrupted)
        assert len(store) == 2  # point 0's data and tag records

        obs = Obs(trace=False)
        result = sweep(BASE, "capacity_bytes", values, solve_cache=store,
                       jobs=1, obs=obs)
        assert SweepStats(obs.metrics).solve_cache_hits == 2
        assert len(store) == 4

        plain = sweep(BASE, "capacity_bytes", values)
        for restored, direct in zip(result.points, plain.points):
            assert dataclasses.asdict(restored.solution) == \
                dataclasses.asdict(direct.solution)
