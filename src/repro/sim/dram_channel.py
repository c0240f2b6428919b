"""Main-memory channels: controller, banks, and page policy.

The target system has two memory channels, each with a single-ranked DIMM
of x8 devices (paper section 3.1).  Requests interleave across channels on
cache-line granularity and across the 8 banks of each rank on row
granularity.  Each bank runs the ACTIVATE/READ-WRITE/PRECHARGE protocol
of paper section 2.3.5 on flat per-bank state (when it is next ready, its
open row, when that row was activated), and the controller adds queueing
at the channel data bus.

All times are in CPU cycles (the simulator's unit).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.mainmem import MainMemoryTiming
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


@dataclass
class MemoryStats:
    activates: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0


#: ``open_row`` of a precharged bank; rows are never negative.
_CLOSED = -1


class MemoryController:
    """Two-channel, multi-bank main memory with a page policy.

    The state is flat: per channel, one ``ready_at``, ``open_row`` and
    ``active_since`` entry per bank, and the data bus's ready time.  The
    page policy is read once here, so an access is a few float
    operations and one row compare.
    """

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
        self._close = self.policy.close_after_access(0.0)
        self._ready_at = [[0.0] * banks_per_channel
                          for _ in range(num_channels)]
        self._open_row = [[_CLOSED] * banks_per_channel
                          for _ in range(num_channels)]
        self._active_since = [[0.0] * banks_per_channel
                              for _ in range(num_channels)]
        self._bus_ready = [0.0] * num_channels
        self._channel_bytes = row_bytes * num_channels
        self.stats = MemoryStats()

    # ------------------------------------------------------------------ #

    def _map(self, address: int) -> tuple[int, int, int]:
        """Address to (channel, bank, row): lines interleave channels,
        rows interleave banks."""
        channel = address // self.line_bytes % self.num_channels
        row_global = address // self._channel_bytes
        bank = row_global % self.banks_per_channel
        return channel, bank, row_global // self.banks_per_channel

    def access(self, now: float, address: int, is_write: bool) -> float:
        """Service one cache-line request; returns its total latency
        (CPU cycles, request to first data).

        A row conflict precharges (once tRAS has passed since the
        activate) and activates; a closed bank activates; a row hit
        issues the column command at once.  Under the closed-page policy
        the bank precharges right after the burst, so every access
        activates.  Reads and writes share this timing.
        """
        t = self.timing
        channel, bank, row = self._map(address)
        ready_at = self._ready_at[channel]
        open_row = self._open_row[channel]
        active_since = self._active_since[channel]
        stats = self.stats

        start = ready_at[bank]
        if now > start:
            start = now
        current = open_row[bank]
        if current == row:
            stats.row_hits += 1
        else:
            if current != _CLOSED:
                # Row conflict: precharge (respecting tRAS) first.
                pre_ok = active_since[bank] + t.t_ras
                start = (start if start >= pre_ok else pre_ok) + t.t_rp
            stats.activates += 1
            open_row[bank] = row
            active_since[bank] = start
            start += t.t_rcd
        data = start + t.t_cas
        burst_done = data + t.t_burst
        if self._close:
            pre_at = active_since[bank] + t.t_ras
            ready_at[bank] = (burst_done if burst_done >= pre_at
                              else pre_at) + t.t_rp
            open_row[bank] = _CLOSED
        else:
            ready_at[bank] = burst_done

        # Channel data bus: one burst occupies it; serialize bursts.
        bus = self._bus_ready[channel]
        data_start = data if data >= bus else bus
        self._bus_ready[channel] = data_start + t.t_burst
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        return data_start + t.t_burst - now
