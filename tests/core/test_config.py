"""Unit tests for the user-facing specs and optimizer targets."""

import pytest

from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    AccessMode,
    MemorySpec,
    OptimizationTarget,
)
from repro.tech.cells import CellTech
from repro.tech.nodes import technology


class TestMemorySpec:
    def test_defaults(self):
        spec = MemorySpec(capacity_bytes=1 << 20)
        assert spec.is_cache
        assert spec.sets == (1 << 20) // (64 * 8)
        assert spec.periphery == "hp-long-channel"

    def test_comm_dram_uses_lstp_periphery(self):
        spec = MemorySpec(capacity_bytes=1 << 20,
                          cell_tech=CellTech.COMM_DRAM)
        assert spec.periphery == "lstp"

    def test_periphery_override(self):
        spec = MemorySpec(capacity_bytes=1 << 20, periph_device_type="lop")
        assert spec.periphery == "lop"

    def test_plain_ram(self):
        spec = MemorySpec(capacity_bytes=1 << 20, associativity=None)
        assert not spec.is_cache
        assert spec.sets == (1 << 20) // 64

    def test_tag_bits_reasonable(self):
        spec = MemorySpec(capacity_bytes=1 << 20, block_bytes=64,
                          associativity=8)
        # 40-bit PA, 2048 sets, 64B blocks: 40 - 11 - 6 + 2 = 25.
        assert spec.tag_bits == 25

    def test_tag_bits_shrink_with_capacity(self):
        small = MemorySpec(capacity_bytes=1 << 20)
        large = MemorySpec(capacity_bytes=1 << 26)
        assert large.tag_bits < small.tag_bits

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            MemorySpec(capacity_bytes=0)
        with pytest.raises(ValueError):
            MemorySpec(capacity_bytes=1 << 20, nbanks=3, block_bytes=64)
        with pytest.raises(ValueError):
            MemorySpec(capacity_bytes=1 << 20, associativity=0)

    @pytest.mark.parametrize("nbanks", [0, -2])
    def test_bank_count_below_one_rejected(self, nbanks):
        with pytest.raises(ValueError, match="nbanks must be >= 1"):
            MemorySpec(capacity_bytes=2 << 20, nbanks=nbanks)

    def test_tag_technology_defaults_to_data(self):
        spec = MemorySpec(capacity_bytes=1 << 20,
                          cell_tech=CellTech.LP_DRAM)
        assert spec.tag_technology is CellTech.LP_DRAM

    def test_tag_technology_override(self):
        spec = MemorySpec(
            capacity_bytes=1 << 20,
            cell_tech=CellTech.COMM_DRAM,
            tag_cell_tech=CellTech.SRAM,
        )
        assert spec.tag_technology is CellTech.SRAM

    def test_all_cell_techs_have_default_periphery(self):
        tech32 = technology(32)
        for tech in CellTech:
            assert tech32.device(tech.traits.default_periphery).vdd > 0


class TestOptimizationTarget:
    def test_defaults_valid(self):
        OptimizationTarget()

    def test_negative_constraints_rejected(self):
        with pytest.raises(ValueError):
            OptimizationTarget(max_area_fraction=-0.1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            OptimizationTarget(
                weight_dynamic=0, weight_leakage=0, weight_cycle=0,
                weight_interleave=0,
            )

    def test_presets(self):
        assert DENSITY_OPTIMIZED.max_area_fraction < 0.1
        assert ENERGY_DELAY_OPTIMIZED.max_acctime_fraction <= 0.2


class TestAccessMode:
    def test_modes(self):
        assert AccessMode.NORMAL.value == "normal"
        assert AccessMode.SEQUENTIAL.value == "sequential"
