"""Unit tests for the reference oracle's subarray model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.senseamp import MIN_CHARGE_SHARE_SIGNAL, SenseAmp
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import InfeasibleSubarray, Subarray
from tests.reference_array.subarray import restore_delay

TECH = technology(32)


def make(cell_tech=CellTech.SRAM, rows=256, cols=256, periph=None):
    if periph is None:
        periph = "lstp" if cell_tech is CellTech.COMM_DRAM else "hp-long-channel"
    return Subarray(
        tech=TECH,
        cell=TECH.cell(cell_tech, periph),
        periph=TECH.device(periph),
        rows=rows,
        cols=cols,
    )


class TestGeometry:
    def test_dimensions_scale_with_cells(self):
        small = make(rows=128, cols=128)
        big = make(rows=256, cols=256)
        assert big.width > small.width
        assert big.height > small.height
        assert big.area > small.area

    def test_cell_area_fraction_below_one(self):
        sub = make()
        assert 0 < sub.cell_area < sub.area

    def test_invalid_dimensions(self):
        with pytest.raises(InfeasibleSubarray):
            make(rows=0)

    def test_comm_dram_densest(self):
        sram = make(CellTech.SRAM)
        comm = make(CellTech.COMM_DRAM)
        assert comm.cell_area < sram.cell_area / 10


class TestBitlines:
    def test_capacitance_linear_in_rows(self):
        c1 = make(rows=128).bitline_capacitance
        c2 = make(rows=256).bitline_capacitance
        assert c2 == pytest.approx(2 * c1, rel=0.01)

    def test_dram_folded_halves_junction_loading(self):
        lp = make(CellTech.LP_DRAM, rows=256)
        assert lp.bitline_capacitance > 0

    def test_resistance_positive(self):
        assert make().bitline_resistance > 0

    def test_comm_tungsten_bitline_more_resistive(self):
        """COMM-DRAM's tungsten bitlines vs LP-DRAM's copper, corrected
        for the different cell heights."""
        comm = make(CellTech.COMM_DRAM, rows=256)
        lp = make(CellTech.LP_DRAM, rows=256)
        r_per_m_comm = comm.bitline_resistance / comm.cell_array_height
        r_per_m_lp = lp.bitline_resistance / lp.cell_array_height
        assert r_per_m_comm > 2 * r_per_m_lp


class TestTiming:
    def test_sram_has_no_writeback(self):
        assert make(CellTech.SRAM).t_writeback == 0.0

    @pytest.mark.parametrize("ct", [CellTech.LP_DRAM, CellTech.COMM_DRAM])
    def test_dram_has_writeback(self, ct):
        assert make(ct).t_writeback > 0

    def test_comm_restore_slower_than_lp(self):
        """Thick-oxide COMM access devices restore far slower."""
        assert (
            make(CellTech.COMM_DRAM).t_writeback
            > 2 * make(CellTech.LP_DRAM).t_writeback
        )

    def test_row_cycle_exceeds_row_to_sense(self):
        for ct in (CellTech.SRAM, CellTech.LP_DRAM, CellTech.COMM_DRAM):
            sub = make(ct)
            assert sub.t_row_cycle > sub.t_row_to_sense

    def test_dram_sense_slower_than_sram(self):
        assert make(CellTech.COMM_DRAM).t_sense > make(CellTech.SRAM).t_sense

    def test_longer_bitline_slower_everything(self):
        short = make(CellTech.COMM_DRAM, rows=128)
        long_ = make(CellTech.COMM_DRAM, rows=512)
        assert long_.t_bitline > short.t_bitline
        assert long_.t_sense > short.t_sense
        assert long_.t_precharge > short.t_precharge

    def test_infeasible_dram_signal(self):
        """Extremely long bitlines starve the sense signal."""
        sub = make(CellTech.LP_DRAM, rows=16384)
        with pytest.raises(InfeasibleSubarray):
            sub.check_sense_feasible()


class TestEnergyAndLeakage:
    def test_read_energy_scales_with_sensed_columns(self):
        sub = make(CellTech.COMM_DRAM)
        assert sub.e_read_bitlines(256) == pytest.approx(
            2 * sub.e_read_bitlines(128)
        )

    def test_dram_sense_energy_exceeds_sram(self):
        sram, comm = make(CellTech.SRAM), make(CellTech.COMM_DRAM)
        assert comm.e_read_bitlines(64) > sram.e_read_bitlines(64)

    def test_sram_cells_leak_dram_cells_do_not(self):
        """DRAM cell leakage costs refresh, not supply current."""
        sram, lp = make(CellTech.SRAM), make(CellTech.LP_DRAM)
        sram_only_decoder = sram.decoder.leakage
        assert sram.leakage(64) - sram_only_decoder > 0
        # DRAM leakage is periphery-only.
        assert lp.leakage(0) == pytest.approx(lp.decoder.leakage, rel=0.05)

    def test_comm_periphery_leaks_least(self):
        """LSTP periphery: orders of magnitude below long-channel HP."""
        comm = make(CellTech.COMM_DRAM)
        sram = make(CellTech.SRAM)
        assert comm.leakage(64) < sram.leakage(64) / 20

    @given(st.integers(min_value=1, max_value=1024))
    @settings(max_examples=20, deadline=None)
    def test_leakage_monotone_in_sense_amps(self, n):
        sub = make()
        assert sub.leakage(n + 1) >= sub.leakage(n)


class TestRestoreDelay:
    """The oracle's charge-share regeneration time (``Subarray.t_sense``
    of the DRAMs)."""

    amp = SenseAmp(TECH.device("lstp"), 32e-9)

    def test_dram_delay_grows_with_bitline_cap(self):
        d1 = restore_delay(self.amp, 20e-15, 0.2, 1.0)
        d2 = restore_delay(self.amp, 80e-15, 0.2, 1.0)
        assert d2 > d1

    def test_dram_delay_grows_with_weaker_signal(self):
        strong = restore_delay(self.amp, 40e-15, 0.3, 1.0)
        weak = restore_delay(self.amp, 40e-15, 0.1, 1.0)
        assert weak > strong

    def test_signal_below_limit_rejected(self):
        with pytest.raises(ValueError, match="below the"):
            restore_delay(self.amp, 40e-15, MIN_CHARGE_SHARE_SIGNAL * 0.9,
                          1.0)
