"""Vectorized-kernel speedup over the reference oracle's sweep.

Solves an 8-spec LLC batch twice on a single core -- once
through the production sweep (numpy survivor-batch kernels, winners
built as objects) and once through the test suite's reference oracle
(``tests/reference_sweep.py``: every candidate pre-filtered and built
one object at a time, no caches) -- and prints the wall-clock pair and
speedup.  Asserts the kernels' correctness contract (bit-identical
designs to the oracle) and a conservative >= 2x single-core speedup
floor that holds even on noisy shared CI runners.  End-to-end solver
times are recorded by ``bench/run.py`` (the solve-sweep workload).
"""

import time

from repro.core.cacti import data_array_spec, solve_batch, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_sweep import reference_ranked

#: A design-space-exploration-shaped batch: LLC candidates across
#: capacities and cell technologies.
BATCH = [
    MemorySpec(capacity_bytes=cap, cell_tech=tech, associativity=8)
    for cap in (1 << 20, 2 << 20, 4 << 20, 8 << 20)
    for tech in (CellTech.SRAM, CellTech.LP_DRAM)
]

#: Conservative CI floor; quiet hardware lands far above it.
MIN_SPEEDUP = 2.0


def oracle_solve(spec: MemorySpec) -> tuple:
    """The oracle's best (data, tag) designs for one cache spec."""
    tech, target = technology(spec.node_nm), OptimizationTarget()
    return tuple(
        reference_ranked(tech, array_spec, target)[0]
        for array_spec in (data_array_spec(spec), tag_array_spec(spec))
    )


def test_bench_kernels_vs_reference_oracle():
    t0 = time.perf_counter()
    fast = solve_batch(BATCH, jobs=1)
    wall_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = [oracle_solve(spec) for spec in BATCH]
    wall_slow = time.perf_counter() - t0

    # Contract: the kernels change wall time only, never numbers.
    for solution, (data, tag) in zip(fast, slow):
        assert solution.data == data
        assert solution.tag == tag

    speedup = wall_slow / wall_fast
    print(
        f"\nkernels: {wall_fast * 1e3:8.1f} ms   "
        f"oracle: {wall_slow * 1e3:8.1f} ms   "
        f"speedup: {speedup:.2f}x"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernels only {speedup:.2f}x over the reference "
        f"oracle (floor {MIN_SPEEDUP}x)"
    )
