"""DRAM operational models: page policies and interfaces."""

from repro.dram.interface import (
    LineMapping,
    MainMemoryLikeInterface,
    SramLikeInterface,
    interleaving_speedup,
    main_memory_like,
    page_hit_ratio,
    sram_like,
)
from repro.dram.page_policy import (
    ClosedPagePolicy,
    OpenPagePolicy,
    PagePolicy,
    crossover_hit_ratio,
    expected_access_latency,
)

__all__ = [
    "ClosedPagePolicy",
    "LineMapping",
    "MainMemoryLikeInterface",
    "OpenPagePolicy",
    "PagePolicy",
    "SramLikeInterface",
    "crossover_hit_ratio",
    "expected_access_latency",
    "interleaving_speedup",
    "main_memory_like",
    "page_hit_ratio",
    "sram_like",
]
