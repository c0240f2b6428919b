"""Main-memory channels: controller, banks, and page policy.

The target system has two memory channels, each with a single-ranked DIMM
of x8 devices (paper section 3.1).  Requests interleave across channels on
cache-line granularity and across the 8 banks of each rank on row
granularity.  Banks follow the command protocol of
:mod:`repro.dram.operations`; the controller adds queueing at the channel
data bus.

All times are in CPU cycles (the simulator's unit).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.mainmem import MainMemoryTiming
from repro.dram.operations import DramBank
from repro.dram.page_policy import ClosedPagePolicy, PagePolicy


@dataclass(frozen=True)
class MemoryTimingCycles:
    """Chip timing interface converted to CPU cycles."""

    t_rcd: float
    t_cas: float
    t_rp: float
    t_ras: float
    t_rc: float
    t_rrd: float
    t_burst: float

    @classmethod
    def from_chip(cls, timing: MainMemoryTiming, cpu_hz: float
                  ) -> "MemoryTimingCycles":
        s = cpu_hz
        return cls(
            t_rcd=timing.t_rcd * s,
            t_cas=timing.t_cas * s,
            t_rp=timing.t_rp * s,
            t_ras=timing.t_ras * s,
            t_rc=timing.t_rc * s,
            t_rrd=timing.t_rrd * s,
            t_burst=timing.t_burst * s,
        )

    def to_chip_timing(self) -> MainMemoryTiming:
        return MainMemoryTiming(
            t_rcd=self.t_rcd,
            t_cas=self.t_cas,
            t_rp=self.t_rp,
            t_ras=self.t_ras,
            t_rc=self.t_rc,
            t_rrd=self.t_rrd,
            t_burst=self.t_burst,
        )


@dataclass
class MemoryStats:
    activates: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0


class MemoryController:
    """Two-channel, multi-bank main memory with a page policy."""

    def __init__(
        self,
        timing: MemoryTimingCycles,
        num_channels: int = 2,
        banks_per_channel: int = 8,
        row_bytes: int = 1024,
        line_bytes: int = 64,
        policy: PagePolicy | None = None,
    ):
        self.timing = timing
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.row_bytes = row_bytes
        self.line_bytes = line_bytes
        self.policy = policy or ClosedPagePolicy()
        chip = timing.to_chip_timing()
        self.banks = [
            [DramBank(timing=chip) for _ in range(banks_per_channel)]
            for _ in range(num_channels)
        ]
        self._bus_ready = [0.0] * num_channels
        self.stats = MemoryStats()

    # ------------------------------------------------------------------ #

    def _map(self, address: int) -> tuple[int, int, int]:
        """Address to (channel, bank, row): lines interleave channels,
        rows interleave banks."""
        line = address // self.line_bytes
        channel = line % self.num_channels
        row_global = address // (self.row_bytes * self.num_channels)
        bank = row_global % self.banks_per_channel
        row = row_global // self.banks_per_channel
        return channel, bank, row

    def access(self, now: float, address: int, is_write: bool) -> float:
        """Service one cache-line request; returns its total latency
        (CPU cycles, request to first data)."""
        channel, bank_idx, row = self._map(address)
        bank = self.banks[channel][bank_idx]
        close = self.policy.close_after_access(0.0)
        result = bank.access(now, row, is_write, close_after=close)

        # Channel data bus: one burst occupies it; serialize bursts.
        data_start = max(result.data_time, self._bus_ready[channel])
        self._bus_ready[channel] = data_start + self.timing.t_burst

        self.stats.reads += 0 if is_write else 1
        self.stats.writes += 1 if is_write else 0
        self.stats.activates += 1 if result.activated else 0
        self.stats.row_hits += 1 if result.row_hit else 0
        return data_start + self.timing.t_burst - now
