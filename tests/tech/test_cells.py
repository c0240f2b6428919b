"""Unit tests for the memory-cell technology data (paper Table 1)."""

import pytest

from repro.tech.cells import (
    CellTech,
    cell,
    comm_dram_cell,
    lp_dram_cell,
    sram_cell,
)
from repro.tech.registry import SensingScheme


class TestTable1:
    """The paper's Table 1 values at 32 nm must hold exactly."""

    def test_cell_areas(self):
        assert sram_cell(32, 0.9).area_f2 == pytest.approx(146)
        assert lp_dram_cell(32).area_f2 == pytest.approx(30)
        assert comm_dram_cell(32).area_f2 == pytest.approx(6)

    def test_storage_capacitance(self):
        assert lp_dram_cell(32).storage_cap == pytest.approx(20e-15)
        assert comm_dram_cell(32).storage_cap == pytest.approx(30e-15)

    def test_cell_vdd_at_32nm(self):
        assert sram_cell(32, 0.9).vdd_cell == pytest.approx(0.9)
        assert lp_dram_cell(32).vdd_cell == pytest.approx(1.0)
        assert comm_dram_cell(32).vdd_cell == pytest.approx(1.0)

    def test_boosted_wordline_at_32nm(self):
        assert lp_dram_cell(32).vpp == pytest.approx(1.5)
        assert comm_dram_cell(32).vpp == pytest.approx(2.6)

    def test_retention_periods(self):
        assert lp_dram_cell(32).retention_time == pytest.approx(0.12e-3)
        assert comm_dram_cell(32).retention_time == pytest.approx(64e-3)


class TestGeometry:
    def test_width_height_consistent_with_area(self):
        for c in (sram_cell(32, 0.9), lp_dram_cell(32), comm_dram_cell(32)):
            assert c.width_f * c.height_f == pytest.approx(c.area_f2, rel=0.03)

    def test_physical_area_scales_with_f_squared(self):
        a90 = comm_dram_cell(90).area
        a45 = comm_dram_cell(45).area
        assert a90 == pytest.approx(4 * a45, rel=0.01)

    def test_density_ordering(self):
        """COMM-DRAM densest, SRAM least dense."""
        sizes = [
            comm_dram_cell(32).area,
            lp_dram_cell(32).area,
            sram_cell(32, 0.9).area,
        ]
        assert sizes == sorted(sizes)


class TestElectricals:
    def test_dram_flags(self):
        charge_share = SensingScheme.CHARGE_SHARE
        assert sram_cell(32, 0.9).traits.sensing is not charge_share
        assert lp_dram_cell(32).traits.sensing is charge_share
        assert comm_dram_cell(32).traits.sensing is charge_share

    def test_comm_access_device_slowest_least_leaky(self):
        lp = lp_dram_cell(32)
        comm = comm_dram_cell(32)
        assert comm.access_i_on < lp.access_i_on
        assert comm.access_i_off < lp.access_i_off / 1e4

    def test_retention_budget_consistent_with_leakage(self):
        """Each DRAM cell's leakage must fit its retention budget; that is
        what distinguishes the 0.12 ms LP cell from the 64 ms COMM cell."""
        for maker in (lp_dram_cell, comm_dram_cell):
            c = maker(32)
            leak = c.access_i_off * c.access_width
            assert leak <= c.retention_leakage_budget()

    def test_sram_has_no_retention_budget(self):
        assert sram_cell(32, 0.9).retention_leakage_budget() is None

    def test_wordline_voltage_boosted_only_for_dram(self):
        assert sram_cell(32, 0.9).wordline_voltage == pytest.approx(0.9)
        assert comm_dram_cell(32).wordline_voltage == pytest.approx(2.6)

    def test_comm_vdd_higher_at_older_nodes(self):
        assert comm_dram_cell(90).vdd_cell > comm_dram_cell(32).vdd_cell
        assert comm_dram_cell(78).vdd_cell == pytest.approx(1.55, abs=0.1)


class TestFactory:
    def test_cell_factory_dispatch(self):
        assert cell(CellTech.SRAM, 32, 0.9).tech is CellTech.SRAM
        assert cell(CellTech.LP_DRAM, 32, 0.9).tech is CellTech.LP_DRAM
        assert cell(CellTech.COMM_DRAM, 32, 0.9).tech is CellTech.COMM_DRAM

    def test_sram_inherits_peripheral_vdd(self):
        assert cell(CellTech.SRAM, 32, 0.77).vdd_cell == pytest.approx(0.77)

    def test_dram_ignores_peripheral_vdd(self):
        assert cell(CellTech.COMM_DRAM, 32, 0.5).vdd_cell == pytest.approx(1.0)
