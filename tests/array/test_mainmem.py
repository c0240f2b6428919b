"""Unit tests for the main-memory DRAM chip organization."""

import pytest

from repro.array.mainmem import MainMemorySpec, derive_energies, derive_timing
from repro.core.cacti import solve_main_memory
from repro.core.optimizer import optimize
from repro.core.config import DENSITY_OPTIMIZED
from repro.tech.nodes import technology


@pytest.fixture(scope="module")
def solved():
    return solve_main_memory(
        MainMemorySpec(capacity_bits=2**30), node_nm=78.0
    )


class TestSpec:
    def test_column_and_burst_bits(self):
        spec = MainMemorySpec(capacity_bits=2**30, data_pins=8, prefetch=8,
                              burst_length=4)
        assert spec.column_bits == 64
        assert spec.burst_bits == 32

    def test_burst_cannot_exceed_prefetch(self):
        with pytest.raises(ValueError, match="exceeds prefetch"):
            MainMemorySpec(capacity_bits=2**30, burst_length=16, prefetch=8)

    @pytest.mark.parametrize("nbanks", [0, -2])
    def test_bank_count_below_one_rejected(self, nbanks):
        with pytest.raises(ValueError, match="nbanks must be >= 1"):
            MainMemorySpec(capacity_bits=2**30, nbanks=nbanks)

    @pytest.mark.parametrize("field", ["data_pins", "burst_length",
                                       "prefetch"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_pins_burst_and_prefetch_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            MainMemorySpec(capacity_bits=2**30, **{field: value})

    def test_array_spec_carries_page(self):
        spec = MainMemorySpec(capacity_bits=2**30, page_bits=8192)
        assert spec.array_spec().page_bits == 8192


class TestTiming:
    def test_trc_composition(self, solved):
        t = solved.timing
        assert t.t_rc == pytest.approx(t.t_ras + t.t_rp)
        assert t.t_ras > t.t_rcd

    def test_rrd_below_rc(self, solved):
        """Multibank interleaving: tRRD is far below tRC."""
        t = solved.timing
        assert t.t_rrd < t.t_rc / 4

    def test_clock_quantization(self):
        spec = MainMemorySpec(capacity_bits=2**30)
        raw = solve_main_memory(spec, node_nm=78.0)
        period = 1.875e-9  # DDR3-1066 clock
        quant = derive_timing(spec, raw.metrics, clock_period=period)
        for name in ("t_rcd", "t_cas", "t_rp", "t_rc", "t_rrd"):
            value = getattr(quant, name)
            assert value / period == pytest.approx(round(value / period))
            assert value >= getattr(raw.timing, name) - 1e-12


class TestEnergies:
    def test_activate_dominates_read(self, solved):
        """Opening an 8 Kb page costs more than streaming one burst."""
        e = solved.energies
        assert e.e_activate > e.e_read

    def test_write_at_least_read(self, solved):
        e = solved.energies
        assert e.e_write >= e.e_read * 0.99

    def test_refresh_and_standby_positive(self, solved):
        assert solved.energies.p_refresh > 0
        assert solved.energies.p_standby > 0

    def test_io_energy_voltage_scaling(self, solved):
        """Explicit io_energy_per_bit overrides the V^2 default."""
        spec = MainMemorySpec(capacity_bits=2**30, io_energy_per_bit=0.0)
        e = derive_energies(spec, solved.metrics, vdd_cell=1.5)
        assert e.e_read < solved.energies.e_read


class TestDensityOptimization:
    def test_area_efficiency_premium(self, solved):
        """Commodity parts are density-optimized (paper section 2.5)."""
        assert solved.area_efficiency > 0.45

    def test_page_respected(self, solved):
        assert solved.metrics.sensed_bits == 8192

    def test_summary_renders(self, solved):
        text = solved.summary()
        assert "tRCD" in text and "ACTIVATE" in text
