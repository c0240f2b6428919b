"""repro: a reproduction of CACTI-D (Thoziyoor et al., ISCA 2008).

A comprehensive memory modeling tool covering SRAM, logic-process DRAM
(LP-DRAM), and commodity DRAM (COMM-DRAM) technologies with consistent
models from L1 caches through main-memory DRAM chips, plus the multicore
timing simulator, workloads, and power accounting used for the paper's
stacked last-level-cache study.

Quick start::

    from repro import CellTech, MemorySpec, solve

    spec = MemorySpec(capacity_bytes=1 << 20, block_bytes=64,
                      associativity=8, node_nm=32.0,
                      cell_tech=CellTech.SRAM)
    solution = solve(spec)
    print(solution.summary())

Only this package, ``repro.cachedb`` and ``repro.obs`` export names;
everything else is imported from the module that defines it.
"""

from repro.array.mainmem import MainMemorySpec
from repro.core.cacti import (
    CactiD,
    MainMemorySolution,
    solve,
    solve_batch,
    solve_main_memory,
)
from repro.core.config import AccessMode, MemorySpec, OptimizationTarget
from repro.core.optimizer import NoFeasibleSolution, SweepStats
from repro.core.results import Solution
from repro.core.solvecache import SolveCache
from repro.tech.nodes import technology
from repro.tech.registry import CellTech

__version__ = "0.1.0"

__all__ = [
    "AccessMode",
    "CactiD",
    "CellTech",
    "MainMemorySolution",
    "MainMemorySpec",
    "MemorySpec",
    "NoFeasibleSolution",
    "OptimizationTarget",
    "Solution",
    "SolveCache",
    "SweepStats",
    "solve",
    "solve_batch",
    "solve_main_memory",
    "technology",
    "__version__",
]
