"""On-grid cachedb lookup latency vs solving live.

Builds a small cachedb grid, then times the two ways of answering the
same on-grid queries: ``CacheDB.query`` (dictionary hit on the
precomputed artifact) and a fresh ``solve`` of the identical spec.  It
prints the per-query wall-clock pair and the speedup, and asserts the
>= 100x floor.  Also asserts the serving contract: the served metrics
equal the live solve's exactly.  End-to-end lookup times are recorded
by ``bench/run.py`` (the cached-solve workload).

The live side deliberately gets no solve cache and a cold eval cache
per query -- the comparison is "answer from the precomputed database"
vs "compute the answer", which is precisely the serving-tier trade the
database exists for.
"""

import time

from repro.cachedb import CacheDB, GridSpec, build_cachedb
from repro.cachedb.schema import DB_METRICS, grid_spec_for
from repro.core.cacti import solve

#: Grid: every cell is also a timed query point.
CAPS = (64 << 10, 256 << 10, 1 << 20)
NODES = (32.0, 45.0)
TECHS = ("sram", "lp-dram")

#: Acceptance floor from the issue; real hardware lands orders of
#: magnitude above it (a dict hit vs a full optimizer sweep).
MIN_SPEEDUP = 100.0

#: Repeats per query point when timing the lookup side, so the
#: microsecond-scale hits aren't swamped by timer resolution.
LOOKUP_REPEATS = 200


def test_bench_cachedb_lookup_vs_live_solve(tmp_path):
    grid = GridSpec(
        capacities_bytes=CAPS, nodes_nm=NODES, technologies=TECHS
    )
    path = tmp_path / "bench-db.db"
    report = build_cachedb(path, grid, jobs="auto")
    assert report.holes == 0
    db = CacheDB(path)
    points = [
        (tech, node, cap)
        for tech in TECHS
        for node in NODES
        for cap in CAPS
    ]

    t0 = time.perf_counter()
    for _ in range(LOOKUP_REPEATS):
        for tech, node, cap in points:
            db.query(cap, cell_tech=tech, node_nm=node, fallback="error")
    wall_lookup = (time.perf_counter() - t0) / LOOKUP_REPEATS

    t0 = time.perf_counter()
    live = {
        (tech, node, cap): solve(grid_spec_for(tech, node, cap, 64, 8))
        for tech, node, cap in points
    }
    wall_solve = time.perf_counter() - t0

    # Serving contract: the database answers with the solver's numbers.
    for (tech, node, cap), solution in live.items():
        served = db.query(cap, cell_tech=tech, node_nm=node)
        assert served.source == "exact"
        assert served.metrics == {
            name: extract(solution)
            for name, extract in DB_METRICS.items()
        }

    speedup = wall_solve / wall_lookup
    print(
        f"\nlookup: {wall_lookup / len(points) * 1e6:8.2f} us/query   "
        f"solve: {wall_solve / len(points) * 1e6:8.2f} us/query   "
        f"speedup: {speedup:.0f}x"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"cachedb lookups only {speedup:.1f}x over live solves "
        f"(floor {MIN_SPEEDUP}x)"
    )
