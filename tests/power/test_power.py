"""Unit tests for power accounting, core scaling, and thermal estimates."""

import pytest

from repro.power.hierarchy import (
    BUS_ENERGY_PER_BIT,
    HierarchyEnergyModel,
    LevelEnergy,
    MainMemoryEnergy,
    hierarchy_power,
)
from repro.power.system import (
    SystemPower,
    scaled_core_power,
)
from repro.power.thermal import ThermalEstimate, temperature_spread
from repro.sim.stats import AccessCounters, SimStats

#: The paper's quoted bottom-die core power (W).
PAPER_CORE_POWER_W = 22.3


def model(l3=True):
    level = LevelEnergy(e_read=0.5e-9, e_write=0.6e-9, p_leakage=1.0)
    return HierarchyEnergyModel(
        l1=LevelEnergy(e_read=0.07e-9, e_write=0.07e-9, p_leakage=0.14),
        l2=level,
        crossbar_e_transfer=0.2e-9,
        crossbar_p_leakage=0.1,
        l3=LevelEnergy(e_read=0.54e-9, e_write=0.6e-9, p_leakage=3.6,
                       p_refresh=0.3) if l3 else None,
        memory=MainMemoryEnergy(
            e_activate=0.6e-9, e_read=0.6e-9, e_write=0.7e-9,
            p_standby=0.091, p_refresh=0.009,
        ),
    )


def stats(**kwargs):
    counters = AccessCounters(**kwargs)
    return SimStats(cycles=2e6, instructions=4e6, counters=counters)


class TestHierarchyPower:
    def test_leakage_always_present(self):
        p = hierarchy_power(model(), stats(), duration_s=1e-3)
        assert p.l1_leak == pytest.approx(0.14)
        assert p.l3_leak == pytest.approx(3.6)
        assert p.l3_refresh == pytest.approx(0.3)
        assert p.main_standby == pytest.approx(0.091 * 16)

    def test_dynamic_scales_with_activity(self):
        lo = hierarchy_power(model(), stats(l2_reads=1000), 1e-3)
        hi = hierarchy_power(model(), stats(l2_reads=2000), 1e-3)
        assert hi.l2_dyn == pytest.approx(2 * lo.l2_dyn)

    def test_memory_dynamic_counts_chips(self):
        p = hierarchy_power(
            model(), stats(mem_reads=1000, mem_activates=1000), 1e-3
        )
        expected = 1000 * (0.6e-9 + 0.6e-9) * 8 / 1e-3
        assert p.main_chip_dyn == pytest.approx(expected)

    def test_bus_power_follows_paper_assumption(self):
        p = hierarchy_power(model(), stats(mem_reads=1000), 1e-3)
        bits = 1000 * (512 + 64)
        assert p.main_bus == pytest.approx(bits * BUS_ENERGY_PER_BIT / 1e-3)

    def test_no_l3_config_zeroes_l3_and_crossbar(self):
        p = hierarchy_power(model(l3=False), stats(l3_reads=100), 1e-3)
        assert p.l3_leak == 0 and p.l3_dyn == 0
        assert p.crossbar_leak == 0 and p.crossbar_dyn == 0

    def test_total_sums_components(self):
        p = hierarchy_power(model(), stats(l2_reads=10), 1e-3)
        assert p.total == pytest.approx(sum(p.as_dict().values()))

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            hierarchy_power(model(), stats(), 0.0)


class TestCorePower:
    def test_matches_paper_value(self):
        """The scaling recipe must land near the paper's 22.3 W."""
        assert scaled_core_power() == pytest.approx(PAPER_CORE_POWER_W,
                                                    rel=0.10)

    def test_higher_clock_more_power(self):
        assert scaled_core_power(clock_hz=3e9) > scaled_core_power()

    def test_lower_vdd_less_power(self):
        assert scaled_core_power(vdd=0.8) < scaled_core_power()


class TestEnergyDelay:
    def test_edp_quadratic_in_time(self):
        p = hierarchy_power(model(), stats(), 1e-3)
        fast = SystemPower(core=22.3, memory_hierarchy=p,
                           execution_time=1e-3)
        slow = SystemPower(core=22.3, memory_hierarchy=p,
                           execution_time=2e-3)
        assert slow.energy_delay / fast.energy_delay == pytest.approx(4.0)

    def test_edp_linear_in_power(self):
        p = hierarchy_power(model(), stats(), 1e-3)
        base = SystemPower(core=20.0, memory_hierarchy=p,
                           execution_time=1e-3)
        hot = SystemPower(core=20.0 + p.total, memory_hierarchy=p,
                          execution_time=1e-3)
        expected = (20.0 + 2 * p.total) / (20.0 + p.total)
        assert hot.energy_delay / base.energy_delay == pytest.approx(expected)


class TestThermal:
    def test_paper_conclusion_holds(self):
        """SRAM vs COMM-DRAM stacked L3: < 1.5 K spread (section 4.3).

        The paper's worst case is ~450 mW per 6.2 mm^2 SRAM bank; the
        COMM-DRAM bank dissipates almost nothing.
        """
        estimates = [
            ThermalEstimate("sram", power=0.45, area=6.2e-6),
            ThermalEstimate("lp-dram", power=0.30, area=6.2e-6),
            ThermalEstimate("comm-dram", power=0.01, area=6.2e-6),
        ]
        assert temperature_spread(estimates) < 1.5

    def test_rise_scales_with_density(self):
        a = ThermalEstimate("a", power=1.0, area=1e-4)
        b = ThermalEstimate("b", power=2.0, area=1e-4)
        assert b.temperature_rise == pytest.approx(2 * a.temperature_rise)
