"""Multicore multithreaded timing simulator for the LLC study."""

from repro.sim.cache import Cache, CacheConfig, MesiState
from repro.sim.coherence import MesiDirectory
from repro.sim.core import ThreadContext, thread_cpi
from repro.sim.dram_channel import MemoryController, MemoryTimingCycles
from repro.sim.interconnect import Crossbar
from repro.sim.stats import (
    BREAKDOWN_CATEGORIES,
    AccessCounters,
    CycleBreakdown,
    SimStats,
)
from repro.sim.system import L3Config, System, SystemConfig, run_workload

#: Bump by hand on any simulator change that alters a ``SimStats``
#: (like :data:`repro.core.solvecache.CACHE_VERSION` for solves), so a
#: study journal written by an older simulator restores nothing.
SIM_VERSION = "repro-sim-v1"

__all__ = [
    "AccessCounters",
    "BREAKDOWN_CATEGORIES",
    "Cache",
    "CacheConfig",
    "Crossbar",
    "CycleBreakdown",
    "L3Config",
    "MemoryController",
    "MemoryTimingCycles",
    "MesiDirectory",
    "MesiState",
    "SIM_VERSION",
    "SimStats",
    "System",
    "SystemConfig",
    "ThreadContext",
    "run_workload",
    "thread_cpi",
]
