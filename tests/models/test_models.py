"""Tests for the aggregate model views (breakdowns, leakage, DDR grades)."""

import pytest

from repro.array.organization import ArraySpec, OrgParams
from repro.models.area import area_breakdown
from repro.models.delay import delay_breakdown
from repro.models.energy import energy_breakdown
from repro.models.leakage import (
    rescale_leakage,
    temperature_factor,
)
from repro.models.refresh import refresh_schedule
from repro.models.timing_dram import (
    DDR3_1066,
    DDR4_3200,
    quantize,
    to_main_memory_timing,
)
from repro.array.mainmem import MainMemoryTiming
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import build_organization

TECH = technology(32)


@pytest.fixture(scope="module")
def metrics():
    spec = ArraySpec(
        capacity_bits=8 * (1 << 20),
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.SRAM,
        periph_device_type="hp-long-channel",
    )
    return build_organization(
        TECH, spec, OrgParams(ndwl=4, ndbl=8, nspd=1.0, ndcm=8, ndsam=1)
    )


class TestBreakdowns:
    def test_area_components_sum_to_total(self, metrics):
        b = area_breakdown(TECH, metrics)
        parts = (b.cells + b.wordline_drivers_and_decode + b.sense_amps
                 + b.htree_wiring + b.overhead)
        assert parts == pytest.approx(b.total, rel=0.01)
        assert abs(sum(b.fractions().values()) - 1.0) < 0.02

    def test_area_report_renders(self, metrics):
        assert "mm^2" in area_breakdown(TECH, metrics).report()

    def test_delay_breakdown_consistent(self, metrics):
        d = delay_breakdown(metrics)
        assert d.access_time == metrics.t_access
        assert d.access_time >= d.htree_in + d.htree_out
        assert "ns" in d.report()

    def test_energy_breakdown_consistent(self, metrics):
        e = energy_breakdown(metrics)
        assert e.total_read == pytest.approx(
            e.activate + e.read_column + e.precharge
        )
        assert "pJ" in e.report()


class TestLeakageUtilities:
    def test_temperature_factor_anchors(self):
        assert temperature_factor(300.0) == pytest.approx(1.0)
        assert temperature_factor(360.0) == pytest.approx(4.0, rel=0.01)

    def test_rescale_round_trip(self):
        assert rescale_leakage(2.0, 360.0) == pytest.approx(2.0)
        assert rescale_leakage(2.0, 300.0) == pytest.approx(0.5)


class TestRefreshUtilities:
    def test_schedule_interval(self):
        s = refresh_schedule(
            total_rows=8192, rows_per_operation=1, retention_time=64e-3,
            row_cycle_time=50e-9, nbanks=8,
        )
        assert s.refresh_interval == pytest.approx(64e-3 / 1024)
        assert 0 < s.bandwidth_overhead < 0.01

    def test_lp_dram_refresh_much_denser(self):
        lp = refresh_schedule(8192, 1, 0.12e-3, 20e-9, 8)
        comm = refresh_schedule(8192, 1, 64e-3, 50e-9, 8)
        assert lp.refresh_interval * 100 < comm.refresh_interval


class TestSpeedGrades:
    def test_grade_clocks(self):
        assert DDR3_1066.clock_period == pytest.approx(1.876e-9, rel=0.01)
        assert DDR4_3200.clock_period == pytest.approx(0.625e-9)

    def test_quantize_rounds_up(self):
        timing = MainMemoryTiming(
            t_rcd=13.1e-9, t_cas=13.1e-9, t_rp=13.1e-9, t_ras=36e-9,
            t_rc=49.1e-9, t_rrd=7.5e-9, t_burst=7.5e-9,
        )
        sheet = quantize(timing, DDR3_1066)
        assert sheet.cl == 7  # the DDR3-1066 CL7 grade
        assert sheet.t_cas >= timing.t_cas

    def test_round_trip(self):
        timing = MainMemoryTiming(
            t_rcd=13e-9, t_cas=13e-9, t_rp=13e-9, t_ras=36e-9, t_rc=49e-9,
            t_rrd=7.5e-9, t_burst=7.5e-9,
        )
        sheet = quantize(timing, DDR4_3200)
        back = to_main_memory_timing(sheet, burst_length=8)
        assert back.t_rcd >= timing.t_rcd
        assert back.t_burst == pytest.approx(8 / 3200e6)

    def test_label(self):
        timing = MainMemoryTiming(13e-9, 13e-9, 13e-9, 36e-9, 49e-9,
                                  7.5e-9, 7.5e-9)
        assert "DDR3-1066" in quantize(timing, DDR3_1066).label()
