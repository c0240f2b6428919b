"""Unit tests for simulation statistics containers."""

import pytest

from repro.sim.core import FP_CPI, OTHER_CPI, thread_cpi
from repro.sim.interconnect import Crossbar
from repro.sim.stats import (
    BREAKDOWN_CATEGORIES,
    AccessCounters,
    CycleBreakdown,
    SimStats,
)


class TestCycleBreakdown:
    def test_total_sums_categories(self):
        b = CycleBreakdown(instruction=10, l2=5, l3=3, memory=20,
                           barrier=2, lock=1)
        assert b.total == 41

    def test_add_accumulates(self):
        a = CycleBreakdown(instruction=10, memory=5)
        b = CycleBreakdown(instruction=1, l3=2)
        a.add(b)
        assert a.instruction == 11
        assert a.l3 == 2
        assert a.memory == 5

    def test_normalized_own_total(self):
        b = CycleBreakdown(instruction=25, memory=75)
        fractions = b.normalized()
        assert fractions["instruction"] == pytest.approx(0.25)
        assert fractions["memory"] == pytest.approx(0.75)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_normalized_external_baseline(self):
        b = CycleBreakdown(instruction=50)
        assert b.normalized(200)["instruction"] == pytest.approx(0.25)

    def test_normalized_empty(self):
        fractions = CycleBreakdown().normalized()
        assert all(v == 0.0 for v in fractions.values())

    def test_categories_match_fields(self):
        b = CycleBreakdown()
        for name in BREAKDOWN_CATEGORIES:
            assert hasattr(b, name)


class TestAccessCounters:
    def test_add(self):
        a = AccessCounters(l1_reads=5, mem_reads=2)
        b = AccessCounters(l1_reads=1, l3_writes=4)
        a.add(b)
        assert a.l1_reads == 6
        assert a.l3_writes == 4
        assert a.mem_reads == 2


class TestSimStats:
    def test_ipc(self):
        stats = SimStats(cycles=100.0, instructions=250.0)
        assert stats.ipc == pytest.approx(2.5)

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_average_read_latency(self):
        stats = SimStats(read_latency_sum=300.0, read_count=10)
        assert stats.average_read_latency == pytest.approx(30.0)

    def test_average_read_latency_no_reads(self):
        assert SimStats().average_read_latency == 0.0


class TestThreadCpi:
    def test_paper_recipe(self):
        """FP at 1 cycle, everything else at 4 (paper section 3.3)."""
        assert thread_cpi(1.0) == pytest.approx(FP_CPI)
        assert thread_cpi(0.0) == pytest.approx(OTHER_CPI)
        assert thread_cpi(0.5) == pytest.approx(2.5)


class TestCrossbar:
    def test_traverse_latency(self):
        xb = Crossbar(traverse_cycles=2)
        assert xb.traverse(10.0, port=0) == pytest.approx(12.0)

    def test_port_occupancy_serializes(self):
        xb = Crossbar(traverse_cycles=2, port_occupancy=3)
        first = xb.traverse(0.0, port=1)
        second = xb.traverse(0.0, port=1)
        assert second == first + 3

    def test_ports_independent(self):
        xb = Crossbar(traverse_cycles=2)
        a = xb.traverse(0.0, port=0)
        b = xb.traverse(0.0, port=7)
        assert a == b  # no interference across output ports

    def test_transfer_count(self):
        xb = Crossbar(traverse_cycles=1)
        xb.traverse(0.0, 0)
        xb.traverse(0.0, 1)
        assert xb.transfers == 2
