"""Jobs-vs-speedup curves for the parallel batch-solve engine.

Solves one multi-spec batch at jobs = 1, 2, 4 and records the
wall-clock curve into ``BENCH_parallel.json`` at the repo root,
alongside per-jobs sweep statistics.  Also asserts the engine's
correctness contract -- bit-identical solutions at every job count --
and, when the machine actually has >= 4 cores, the >= 2x speedup
target at jobs=4.  On smaller machines the measured curve is still
recorded (with the cpu count, so the number can be read in context)
but the speedup assertion is skipped: a 1-core container cannot
physically run four CPU-bound workers faster than one.
"""

import json
import os
import time

from repro.core.cacti import solve_batch
from repro.core.config import MemorySpec
from repro.core.optimizer import SweepStats
from repro.core.parallel import resolve_jobs
from repro.obs import Obs
from repro.tech.cells import CellTech

BENCH_FILE = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_parallel.json"
)

#: A design-space-exploration-shaped batch: LLC candidates across
#: capacities and cell technologies, the kind of matrix the paper's
#: Table 3 / Figure 4 study solves.
BATCH = [
    MemorySpec(capacity_bytes=cap, cell_tech=tech, associativity=8)
    for cap in (1 << 20, 2 << 20, 4 << 20, 8 << 20)
    for tech in (CellTech.SRAM, CellTech.LP_DRAM)
]

JOBS = (1, 2, 4)


def test_bench_parallel_batch_solve():
    available = resolve_jobs(0)
    wall: dict[int, float] = {}
    stats: dict[int, SweepStats] = {}
    solutions = {}
    for jobs in JOBS:
        obs = Obs(trace=False)
        stats[jobs] = SweepStats(obs.metrics)
        t0 = time.perf_counter()
        solutions[jobs] = solve_batch(BATCH, obs=obs, jobs=jobs)
        wall[jobs] = time.perf_counter() - t0

    # Contract: parallelism changes wall time only, never numbers.
    for jobs in JOBS[1:]:
        for serial, sharded in zip(solutions[1], solutions[jobs]):
            assert serial.data == sharded.data
            assert serial.tag == sharded.tag

    speedup = {jobs: wall[1] / wall[jobs] for jobs in JOBS}
    payload = {
        "description": (
            "wall-clock time of one solve_batch over the spec batch, "
            "per worker count"
        ),
        "cpu_count": available,
        "batch": [
            f"{spec.capacity_bytes >> 20}MB {spec.cell_tech.value}"
            for spec in BATCH
        ],
        "wall_time_s": {str(j): wall[j] for j in JOBS},
        "speedup_vs_jobs1": {str(j): speedup[j] for j in JOBS},
        "sweep_stats": {str(j): stats[j].as_dict() for j in JOBS},
        "bit_identical_across_jobs": True,
    }
    with open(BENCH_FILE, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"\ncpu_count={available}")
    for jobs in JOBS:
        print(
            f"jobs={jobs}: {wall[jobs] * 1e3:8.1f} ms "
            f"({speedup[jobs]:.2f}x vs jobs=1)"
        )

    if available >= 4:
        assert speedup[4] >= 2.0, (
            f"jobs=4 speedup {speedup[4]:.2f}x < 2x on a "
            f"{available}-core machine"
        )
