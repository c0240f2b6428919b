"""Unit tests for the multi-process batch execution engine."""

import pytest

from repro.core import parallel
from repro.core.cacti import solve, solve_batch, CactiD
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import SweepStats
from repro.core.parallel import parallel_map, resolve_jobs
from repro.core.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
)
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.study.sensitivity import capacity_sweep, sweep
from repro.tech.cells import CellTech

BATCH = [
    MemorySpec(capacity_bytes=512 << 10, cell_tech=CellTech.SRAM),
    MemorySpec(capacity_bytes=1 << 20, cell_tech=CellTech.SRAM),
    MemorySpec(capacity_bytes=1 << 20, cell_tech=CellTech.LP_DRAM),
]


class TestResolveJobs:
    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_auto_means_at_least_one_core(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_auto_sentinel_resolves_to_all_cores(self):
        assert resolve_jobs("auto") == resolve_jobs(None)


class TestEffectiveJobs:
    """The workers a map starts: ``"auto"`` means all cores, and a map
    never starts more workers than it has tasks."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def run_parallel(self):
            raise AssertionError("started a worker pool")

        monkeypatch.setattr(parallel._ResilientMap, "_run_parallel",
                            run_parallel)

    def test_auto_goes_serial_below_min_tasks(self, no_pool):
        assert parallel_map(_double, [3], "auto") == [6]

    def test_auto_goes_serial_on_one_core(self, no_pool, monkeypatch):
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0},
            raising=False,
        )
        assert parallel_map(_double, [1, 2, 3], "auto") == [2, 4, 6]


def _double(x):
    return 2 * x


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_process_pool_preserves_order(self):
        assert parallel_map(_double, list(range(20)), jobs=2) == [
            2 * x for x in range(20)
        ]


class TestSolveBatch:
    def test_serial_batch_matches_individual_solves(self):
        individual = [solve(spec) for spec in BATCH]
        batch = solve_batch(BATCH, jobs=1)
        for a, b in zip(individual, batch):
            assert a.data == b.data and a.tag == b.tag

    def test_parallel_batch_is_bit_identical(self):
        serial = solve_batch(BATCH, jobs=1)
        sharded = solve_batch(BATCH, jobs=2)
        for a, b in zip(serial, sharded):
            assert a.data == b.data and a.tag == b.tag

    def test_target_sequence_must_match_specs(self):
        with pytest.raises(ValueError):
            solve_batch(BATCH, [OptimizationTarget()])

    def test_workers_share_persistent_cache(self, tmp_path):
        cache = SolveCache(tmp_path / "solves.db")
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        solve_batch(BATCH, solve_cache=cache, obs=obs, jobs=2)
        # Each cache spec contributes a data and a tag array record,
        # written by the workers and visible to the parent after merge.
        assert len(cache) == 2 * len(BATCH)
        assert stats.workers_absorbed == len(BATCH)
        # A second batch is served from disk inside the workers.
        again_obs = Obs(trace=False)
        again = SweepStats(again_obs.metrics)
        solve_batch(BATCH, solve_cache=cache, obs=again_obs, jobs=2)
        assert again.solve_cache_hits == 2 * len(BATCH)
        assert again.built == 0

    def test_facade_batch(self, tmp_path):
        tool = CactiD(node_nm=32.0, cache_path=tmp_path / "c.db")
        batch = tool.solve_batch(BATCH, jobs=2)
        assert [s.spec for s in batch] == BATCH
        assert tool.stats.workers_absorbed == len(BATCH)
        assert len(tool.solve_cache) == 2 * len(BATCH)

    def test_facade_batch_rejects_wrong_node(self):
        tool = CactiD(node_nm=45.0)
        with pytest.raises(ValueError):
            tool.solve_batch(BATCH)


class TestInProcessCaches:
    """Tasks a batch runs in this process use the caller's caches."""

    SIX = [
        MemorySpec(capacity_bytes=kib << 10, cell_tech=CellTech.SRAM)
        for kib in (64, 128, 256, 512, 1024, 2048)
    ]

    @pytest.mark.parametrize(
        "resilience", [None, ResiliencePolicy()], ids=["default", "policy"]
    )
    def test_serial_batch_writes_through_the_callers_store(
        self, tmp_path, resilience
    ):
        plain = SolveCache(tmp_path / "plain.db")
        for spec in self.SIX:
            solve(spec, solve_cache=plain)
        cache = SolveCache(tmp_path / "batch.db")
        solve_batch(
            self.SIX, solve_cache=cache, jobs=1, resilience=resilience
        )
        # Held open across the batch: one rewrite of the store file.
        assert cache.stats()["flush_writes"] == 1
        # No worker copy of the store was opened in this process.
        assert parallel._WORKER_SOLVE_CACHES == {}
        # Every data and tag lookup went through the caller's instance.
        assert (cache.hits, cache.misses) == (plain.hits, plain.misses)
        assert (cache.hits, cache.misses) == (0, 2 * len(self.SIX))
        assert len(cache) == 2 * len(self.SIX)

    def test_interrupted_serial_batch_resumes_from_the_store(
        self, tmp_path
    ):
        """The store is a batch's checkpoint: a serial batch that raises
        at its third spec keeps the first two specs' records, and the
        rerun is served them."""
        cache = SolveCache(tmp_path / "batch.db")
        interrupted = ResiliencePolicy(fault_plan=FaultPlan(
            (FaultSpec("batch.solve", 2, "raise"),)
        ))
        with pytest.raises(FaultInjected):
            solve_batch(BATCH, solve_cache=cache, jobs=1,
                        resilience=interrupted)
        assert len(cache) == 4  # a data and a tag record per spec
        obs = Obs(trace=False)
        again = solve_batch(BATCH, solve_cache=cache, jobs=1, obs=obs)
        assert SweepStats(obs.metrics).solve_cache_hits == 4
        assert list(again) == [solve(spec) for spec in BATCH]

    @pytest.mark.parametrize("entry", ["solve_batch", "facade", "sweep",
                                       "build_cachedb"])
    def test_solve_stages_refuse_a_journal(self, tmp_path, entry):
        """A solve's checkpoint is its store: no solve entry point takes
        a journal, so none can be handed one."""
        from repro.cachedb import GridSpec, build_cachedb

        journal = tmp_path / "j"
        calls = {
            "solve_batch": lambda: solve_batch(BATCH, journal=journal),
            "facade": lambda: CactiD(journal=journal),
            "sweep": lambda: capacity_sweep(BATCH[0], journal=journal),
            "build_cachedb": lambda: build_cachedb(
                tmp_path / "db.db", GridSpec(capacities_bytes=(64 << 10,)),
                journal=journal,
            ),
        }
        with pytest.raises(TypeError, match="journal"):
            calls[entry]()
        assert not (tmp_path / "db.db").exists()
        assert not (tmp_path / "j").exists()

    def test_serial_sweep_uses_the_callers_eval_cache(self):
        from repro.array.organization import EvalCache

        base = MemorySpec(capacity_bytes=256 << 10)
        memo = EvalCache()
        capacity_sweep(base, factors=(1, 2), eval_cache=memo)
        warm = Obs(trace=False)
        capacity_sweep(base, factors=(1, 2), eval_cache=memo, obs=warm)
        # The second sweep finds every subarray in the caller's memo.
        assert SweepStats(warm.metrics).subarray_misses == 0
        assert parallel._WORKER_EVAL_CACHE is None


class TestParallelSensitivity:
    BASE = MemorySpec(capacity_bytes=256 << 10)

    def test_shared_eval_cache_reuses_designs_across_points(self):
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        capacity_sweep(self.BASE, factors=(1, 2, 4), obs=obs)
        # Neighboring points share subarray problems; the reuse must be
        # visible in the sweep stats.
        assert stats.subarray_hits > 0

    def test_parallel_sweep_matches_serial(self):
        serial = capacity_sweep(self.BASE, factors=(1, 2, 4))
        sharded = capacity_sweep(self.BASE, factors=(1, 2, 4), jobs=2)
        for a, b in zip(serial.points, sharded.points):
            assert a.value == b.value
            assert (a.solution is None) == (b.solution is None)
            if a.solution is not None:
                assert a.solution.data == b.solution.data
                assert a.solution.tag == b.solution.tag

    def test_parallel_sweep_tolerates_infeasible_points(self):
        # 3 banks cannot divide most capacities: the invalid points
        # must come back as None in order, not crash the pool.
        result = sweep(self.BASE, "nbanks", [1, 3, 2], jobs=2)
        values = [p.value for p in result.points]
        assert values == [1.0, 3.0, 2.0]
        assert result.points[0].solution is not None

    def test_parallel_sweep_absorbs_worker_stats(self):
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        capacity_sweep(self.BASE, factors=(1, 2), obs=obs, jobs=2)
        assert stats.workers_absorbed == 2
        assert stats.feasible > 0
