"""Embedded/stacked DRAM operational models (paper sections 2.3.4 and 3.4).

An embedded or stacked DRAM can be operated two ways:

* **Main-memory-like**: explicit ACTIVATE/READ/WRITE/PRECHARGE with a page
  policy.  Wins when the access stream has page locality.
* **SRAM-like**: just READ and WRITE; each command carries row+column
  address, latches the row, reads out, and precharges immediately.  The
  row cycle is fully internal, and throughput comes from *multisubbank
  interleaving*: subbanks of a bank share the address/data bus, so
  accesses to different subbanks can be pitched at the interleave cycle
  time rather than the random cycle time.

This module also models the cache-line-to-page mapping choice of Figure 3
(a cache set per page vs sets striped across pages) in terms of the
expected page-hit ratio it yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.array.organization import ArrayMetrics
from repro.dram.page_policy import PagePolicy, expected_access_latency


class LineMapping(Enum):
    """How cache lines map onto DRAM pages (paper Figure 3)."""

    SET_PER_PAGE = "set-per-page"  #: a whole set in one page
    STRIPED = "striped"  #: same way of sequential sets per page


@dataclass(frozen=True)
class SramLikeInterface:
    """Embedded DRAM behind a vanilla SRAM-like interface.

    Activate and precharge are invisible to the user; the random cycle
    time absorbs the writeback + restore of the destructive read, and the
    multisubbank interleave cycle governs back-to-back throughput to
    different subbanks.
    """

    access_time: float
    random_cycle: float
    interleave_cycle: float
    num_subbanks: int

    def effective_cycle(self, conflict_ratio: float) -> float:
        """Mean issue pitch when ``conflict_ratio`` of consecutive accesses
        land in a busy subbank and must wait the full random cycle."""
        return (
            (1.0 - conflict_ratio) * self.interleave_cycle
            + conflict_ratio * self.random_cycle
        )


@dataclass(frozen=True)
class MainMemoryLikeInterface:
    """Embedded DRAM operated with explicit row commands and a policy."""

    t_rcd: float
    t_cas: float
    t_rp: float
    policy: PagePolicy

    def expected_latency(self, page_hit_ratio: float) -> float:
        return expected_access_latency(
            self.t_rcd, self.t_cas, self.t_rp, page_hit_ratio, self.policy
        )


def sram_like(metrics: ArrayMetrics, num_subbanks: int) -> SramLikeInterface:
    """Build the SRAM-like interface view of an embedded DRAM array."""
    return SramLikeInterface(
        access_time=metrics.t_access,
        random_cycle=metrics.t_random_cycle,
        interleave_cycle=metrics.t_interleave,
        num_subbanks=num_subbanks,
    )


def main_memory_like(
    metrics: ArrayMetrics, policy: PagePolicy, command_overhead: float = 0.0
) -> MainMemoryLikeInterface:
    """Build the main-memory-like interface view of an embedded array.

    Embedded operation skips the external-DIMM synchronization, so the
    command overhead defaults to zero.
    """
    t_rcd = (
        command_overhead
        + metrics.t_htree_in
        + metrics.t_decode
        + metrics.t_bitline
        + metrics.t_sense
    )
    t_cas = command_overhead + metrics.t_htree_in + metrics.t_htree_out
    t_rp = command_overhead + metrics.t_wordline + metrics.t_precharge
    return MainMemoryLikeInterface(
        t_rcd=t_rcd, t_cas=t_cas, t_rp=t_rp, policy=policy
    )


def page_hit_ratio(
    mapping: LineMapping,
    page_bits: int,
    line_bits: int,
    assoc: int,
    sequential_access: bool,
    spatial_locality: float = 0.0,
) -> float:
    """Expected page-hit ratio of a DRAM *cache* under a line mapping.

    The paper's section 3.4 argument: with a set mapped per page, a normal
    (parallel tag+data) access fetches the whole set and enjoys intra-page
    locality, but a *sequential* cache (tag first) touches one line per
    set, and the next request almost surely goes to another set -- so the
    hit ratio collapses.  Striping puts the same way of consecutive sets
    in a page, but set-associative placement randomizes which way a line
    lives in, so consecutive addresses rarely share a page either.
    ``spatial_locality`` is the probability that the next request falls in
    the same aligned page-sized address window.
    """
    lines_per_page = max(1, page_bits // line_bits)
    if mapping is LineMapping.SET_PER_PAGE:
        if sequential_access:
            return 0.0
        sets_per_page = max(1, lines_per_page // assoc)
        if sets_per_page > 1:
            # Multiple sets per page: spatially-adjacent lines share it.
            return spatial_locality * (1.0 - 1.0 / sets_per_page)
        return 0.0
    # Striped: a page holds one way of `lines_per_page` sequential sets,
    # but each line sits in a random way, diluting locality by 1/assoc.
    return spatial_locality * (1.0 - 1.0 / lines_per_page) / assoc


def interleaving_speedup(
    random_cycle: float, interleave_cycle: float, num_subbanks: int
) -> float:
    """Throughput gain of multisubbank interleaving over a single bank."""
    base = 1.0 / random_cycle
    pitched = 1.0 / max(interleave_cycle, random_cycle / num_subbanks)
    return pitched / base

