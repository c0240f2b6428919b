"""Golden-equivalence regression: the optimizer's layers change nothing.

The production sweep is three layers -- the vectorized structural
pre-filter and survivor kernels, cross-candidate EvalCache memoization,
and the persistent solve cache -- and every one of them must be
numerically invisible.  These tests compare against the reference
oracle (tests/reference_sweep.py: every candidate pre-filtered and
built one object at a time, no caches) field for field, for SRAM,
LP-DRAM and COMM-DRAM arrays and every other registered technology
(STT-RAM) at 32 and 78 nm.
"""

import dataclasses

import pytest

from repro.array.organization import ArraySpec, EvalCache
from repro.array.kernels import survivor_batch
from repro.core.config import DENSITY_OPTIMIZED, MemorySpec, OptimizationTarget
from repro.core.optimizer import SweepStats, feasible_designs, optimize
from repro.core.parallel import parallel_map, worker_eval_cache
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from repro.tech.registry import registered_names
from tests.reference_array import derive_geometry
from tests.reference_sweep import reference_candidates, reference_feasible


def sram_spec(capacity_kb: int = 128) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.SRAM,
        periph_device_type="hp-long-channel",
    )


def lp_dram_spec(capacity_kb: int = 256) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.LP_DRAM,
        periph_device_type="hp-long-channel",
    )


def comm_dram_spec(capacity_mbit: int = 64) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_mbit << 20,
        output_bits=64,
        assoc=1,
        nbanks=8,
        cell_tech=CellTech.COMM_DRAM,
        periph_device_type="lstp",
        page_bits=8192,
    )


def cache_array_spec(name: str, capacity_kb: int = 128) -> ArraySpec:
    """An 8-way cache data array of the registered technology ``name``
    on its default periphery."""
    cell_tech = CellTech(name)
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=cell_tech,
        periph_device_type=cell_tech.traits.default_periphery,
    )


#: Each technology's spec and target; every registered technology
#: without a spec of its own here (STT-RAM) joins as a cache data array.
CASES = {
    "sram": (sram_spec(), OptimizationTarget()),
    "lp-dram": (lp_dram_spec(), OptimizationTarget()),
    "comm-dram": (comm_dram_spec(), DENSITY_OPTIMIZED),
}
CASES.update(
    (name, (cache_array_spec(name), OptimizationTarget()))
    for name in registered_names()
    if name not in CASES
)

GRID = [
    pytest.param(spec, node, target, id=f"{name}-{node}nm")
    for node in (32.0, 78.0)
    for name, (spec, target) in CASES.items()
]


def assert_metrics_identical(a, b):
    """Field-for-field (bit-identical float) equality of two metrics."""
    for f in dataclasses.fields(type(a)):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.mark.parametrize("spec,node,target", GRID)
def test_fast_path_matches_naive(spec, node, target):
    tech = technology(node)
    naive = reference_feasible(tech, spec)
    fast = feasible_designs(tech, spec, cache=EvalCache())
    assert len(naive) == len(fast)
    for a, b in zip(naive, fast):
        assert_metrics_identical(a, b)


@pytest.mark.parametrize("spec,node,target", GRID)
def test_fused_enumeration_matches_filtered_enumeration(spec, node, target):
    """The vectorized pre-filter keeps exactly the tuples prefilter_org
    keeps from enumerate_orgs, in enumeration order (ranking ties break
    by that order)."""
    batch = survivor_batch(spec)
    fused = [batch.org_at(i)[0] for i in range(batch.size)]
    assert fused == [org for org, _ in reference_candidates(spec)]


@pytest.mark.parametrize("spec,node,target", GRID)
def test_vectorized_grid_matches_fused_enumeration(spec, node, target):
    """Every survivor's batch geometry is the one derive_geometry
    computes for it, integer for integer."""
    for org, geometry in survivor_batch(spec).candidates():
        assert geometry == derive_geometry(spec, org)


def _optimize_in_worker(payload):
    node, spec, target = payload
    return optimize(
        technology(node), spec, target, eval_cache=worker_eval_cache()
    )


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("spec,node,target", GRID)
def test_parallel_optimize_is_bit_identical(spec, node, target, jobs):
    """Sweeps run inside the coarse-task workers (solve_batch, studies,
    sensitivity sweeps, cachedb builds) with worker-local eval caches
    and come home pickled: ``jobs`` worker copies of one optimize return
    field-for-field the in-process result."""
    serial = optimize(technology(node), spec, target)
    for remote in parallel_map(
        _optimize_in_worker, [(node, spec, target)] * jobs, jobs
    ):
        assert_metrics_identical(serial, remote)


@pytest.mark.parametrize("spec,node,target", GRID)
def test_solve_cache_round_trip_is_bit_identical(spec, node, target,
                                                 tmp_path):
    tech = technology(node)
    direct = optimize(tech, spec, target)

    store = f"sqlite:{tmp_path / 'solves.db'}"
    cache = SolveCache(store)
    first = optimize(tech, spec, target, solve_cache=cache)
    assert_metrics_identical(first, direct)
    cache.close()

    # A fresh cache object re-reads the store: the disk round trip
    # must reproduce every float exactly.
    reread = SolveCache(store)
    cached = optimize(tech, spec, target, solve_cache=reread)
    assert reread.hits == 1
    assert_metrics_identical(cached, direct)
    reread.close()


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_solve_batch_bit_identical_through_the_store(jobs, tmp_path):
    """solve_batch x jobs {1,2,4}: worker processes sharing the store
    produce field-for-field the numbers of the cache-free serial path,
    and a second batch is served entirely from the store -- still
    bit-identical."""
    from repro.core.cacti import solve_batch

    specs = [
        MemorySpec(
            capacity_bytes=capacity_kb << 10,
            block_bytes=64,
            associativity=8,
            node_nm=32.0,
            cell_tech=CellTech.SRAM,
        )
        for capacity_kb in (16, 32, 64, 128)
    ]
    baseline = solve_batch(specs, jobs=1)

    cache = SolveCache(f"sqlite:{tmp_path / 'solves.db'}")
    first = solve_batch(specs, solve_cache=cache, jobs=jobs)
    for a, b in zip(baseline, first):
        assert_metrics_identical(a.data, b.data)
        assert_metrics_identical(a.tag, b.tag)

    assert len(cache) == 2 * len(specs)  # data + tag arrays per spec
    again = solve_batch(specs, solve_cache=cache, jobs=1)
    assert cache.hits == 2 * len(specs)
    for a, b in zip(baseline, again):
        assert_metrics_identical(a.data, b.data)
        assert_metrics_identical(a.tag, b.tag)
    cache.close()


#: The store's tables and indexes as every earlier build created them,
#: frozen here so a layout change that strands existing stores fails.
_EARLIER_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE records (
    key           TEXT PRIMARY KEY,
    shard         TEXT NOT NULL DEFAULT '',
    value         TEXT NOT NULL,
    version       TEXT NOT NULL,
    created_s     REAL NOT NULL,
    last_access_s REAL NOT NULL,
    tombstone     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX idx_records_lru
    ON records (version, tombstone, last_access_s, key);
CREATE INDEX idx_records_shard ON records (shard);
INSERT INTO meta VALUES ('schema', 'repro-store-sqlite-v1');
PRAGMA journal_mode=WAL;
"""


def test_existing_store_serves_bit_identical_records(tmp_path):
    """A store written in the earlier layout -- its rows as earlier
    builds wrote them -- is served bit-identically, through either
    spelling of its path."""
    import json
    import sqlite3

    from repro.core.solvecache import metrics_to_dict, solve_key

    spec, target = sram_spec(), OptimizationTarget()
    tech = technology(32.0)
    direct = optimize(tech, spec, target)
    path = tmp_path / "solves.db"
    conn = sqlite3.connect(path)
    conn.executescript(_EARLIER_SCHEMA)
    with conn:
        conn.execute(
            "INSERT INTO records VALUES (?, '', ?, ?, 1.0, 1.0, 0)",
            (solve_key(spec, target, 32.0),
             json.dumps(metrics_to_dict(direct), sort_keys=True),
             "repro-solve-cache-v3"),
        )
    conn.close()

    for store in (path, f"sqlite:{path}"):
        cache = SolveCache(store)
        served = optimize(tech, spec, target, solve_cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert_metrics_identical(served, direct)
        cache.close()


@pytest.mark.parametrize("spec,node,target", GRID)
def test_tracing_is_numerically_invisible(spec, node, target):
    """Observability's determinism contract: a traced solve returns
    bit-identical metrics to an untraced one.  Spans read the clock
    around existing work; they never reorder or perturb it."""
    tech = technology(node)
    plain = optimize(tech, spec, target)
    obs = Obs()
    traced = optimize(tech, spec, target, obs=obs)
    assert_metrics_identical(plain, traced)
    assert len(obs.tracer) > 0  # the trace actually recorded the run


def sram_batch() -> list[MemorySpec]:
    return [
        MemorySpec(capacity_bytes=capacity_kb << 10, node_nm=32.0)
        for capacity_kb in (16, 32, 64, 128)
    ]


def assert_solutions_identical(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert_metrics_identical(a.data, b.data)
        assert_metrics_identical(a.tag, b.tag)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_tracing_is_invisible_at_any_job_count(jobs):
    """Trace on/off x jobs {1,2,4}: same numbers every way, including
    the worker-span shipping path."""
    from repro.core.cacti import solve_batch

    plain = solve_batch(sram_batch(), jobs=jobs)
    traced = solve_batch(sram_batch(), jobs=jobs, obs=Obs())
    assert_solutions_identical(plain, traced)


def test_killed_worker_solve_batch_is_bit_identical():
    """Fault tolerance's determinism contract: a batch whose worker is
    hard-killed mid-run completes with field-for-field the solutions of
    the unfaulted serial batch.  The parent re-runs the dead worker's
    tasks on the same specs, and results stay in spec order."""
    from repro.core.cacti import solve_batch
    from repro.core.resilience import FaultPlan, FaultSpec, ResiliencePolicy

    serial = solve_batch(sram_batch(), jobs=1)
    plan = FaultPlan((FaultSpec("batch.solve", 2, "kill"),))
    obs = Obs(trace=False)
    stats = SweepStats(obs.metrics)
    faulted = solve_batch(
        sram_batch(), jobs=2, obs=obs,
        resilience=ResiliencePolicy(fault_plan=plan),
    )
    assert_solutions_identical(serial, faulted)
    assert not faulted.failed
    assert stats.pool_rebuilds >= 1  # the kill fault broke a pool
    assert stats.tasks_failed == 0  # every solve completed


def test_every_sink_together_is_invisible(tmp_path):
    """A traced or a metrics-only obs together with a solve cache --
    cold, then serving the record -- still golden."""
    spec, target = sram_spec(), OptimizationTarget()
    tech = technology(32.0)
    direct = optimize(tech, spec, target)
    for trace in (True, False):
        store = SolveCache(tmp_path / f"solves-{trace}.db")
        for _cold_then_warm in range(2):
            obs = Obs(trace=trace)
            kitchen_sink = optimize(
                tech, spec, target, solve_cache=store, obs=obs
            )
            assert_metrics_identical(direct, kitchen_sink)
        assert SweepStats(obs.metrics).solve_cache_hits == 1
