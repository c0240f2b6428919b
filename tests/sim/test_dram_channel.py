"""Unit tests for the main-memory controller model."""

import pytest

from repro.dram.page_policy import OpenPagePolicy
from repro.sim.dram_channel import MemoryController, MemoryTimingCycles

TIMING = MemoryTimingCycles(
    t_rcd=30, t_cas=31, t_rp=28, t_ras=70, t_rc=98, t_rrd=15, t_burst=5
)


def make(**kwargs):
    return MemoryController(TIMING, **kwargs)


class TestMapping:
    def test_lines_interleave_channels(self):
        mc = make()
        ch0 = mc._map(0)[0]
        ch1 = mc._map(64)[0]
        assert ch0 != ch1

    def test_rows_interleave_banks(self):
        mc = make()
        __, b0, __ = mc._map(0)
        __, b1, __ = mc._map(1024 * 2)  # next row on the same channel
        assert b0 != b1


class TestLatency:
    def test_closed_page_latency(self):
        mc = make()
        lat = mc.access(0.0, 0, False)
        assert lat == pytest.approx(
            TIMING.t_rcd + TIMING.t_cas + TIMING.t_burst
        )

    def test_bank_conflict_queues(self):
        mc = make()
        first = mc.access(0.0, 0, False)
        # Same bank, immediately afterward: must wait for the row cycle.
        second = mc.access(1.0, 0, False)
        assert second > first

    def test_different_banks_overlap(self):
        mc = make()
        mc.access(0.0, 0, False)
        other_bank = 1024 * 2  # same channel, next bank
        lat = mc.access(1.0, other_bank, False)
        assert lat <= TIMING.t_rcd + TIMING.t_cas + 2 * TIMING.t_burst

    def test_channel_bus_serializes_bursts(self):
        mc = make(banks_per_channel=8)
        base = mc.access(0.0, 0, False)
        # Different bank, same channel: data bursts share the bus.
        lat = mc.access(0.0, 2048, False)
        assert lat >= base  # second burst waits for the first

    def test_open_page_policy_hits(self):
        mc = make(policy=OpenPagePolicy())
        mc.access(0.0, 0, False)
        lat = mc.access(500.0, 0, False)  # same row
        assert lat == pytest.approx(TIMING.t_cas + TIMING.t_burst)
        assert mc.stats.row_hits == 1


class TestStats:
    def test_counters(self):
        mc = make()
        mc.access(0.0, 0, False)
        mc.access(200.0, 64, True)
        assert mc.stats.reads == 1
        assert mc.stats.writes == 1
        assert mc.stats.activates == 2
