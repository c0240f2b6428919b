"""System power and energy-delay product (paper Figure 5(b)).

Core power follows the paper's scaling recipe: the 90 nm Niagara's 63 W is
scaled to 32 nm assuming linear capacitance scaling, a 1.2 GHz to 2 GHz
clock increase, a 1.2 V to 0.9 V supply reduction, and a 40 % leakage
share, then adjusted for the eight 4-way SIMD FPUs (the 90 nm Niagara had
a single shared FPU).  The paper arrives at 22.3 W for the bottom die.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.hierarchy import PowerBreakdown

#: Published 90 nm Niagara chip power (W) and operating point.
NIAGARA_POWER_W = 63.0
NIAGARA_NODE_NM = 90.0
NIAGARA_CLOCK_HZ = 1.2e9
NIAGARA_VDD = 1.2

#: Fraction of Niagara power attributed to leakage (paper assumption).
NIAGARA_LEAKAGE_FRACTION = 0.40

#: Power of one 32 nm 4-way SIMD FPU under load (W); eight cores carry one
#: each versus the single shared FPU of the original chip.
FPU_POWER_32NM = 0.37
NUM_FPUS = 8


def scaled_core_power(
    node_nm: float = 32.0,
    clock_hz: float = 2e9,
    vdd: float = 0.9,
) -> float:
    """Bottom-die core power at the target node via the paper's recipe."""
    dynamic = NIAGARA_POWER_W * (1.0 - NIAGARA_LEAKAGE_FRACTION)
    leakage = NIAGARA_POWER_W * NIAGARA_LEAKAGE_FRACTION

    cap_scale = node_nm / NIAGARA_NODE_NM  # linear capacitance scaling
    dynamic_scaled = (
        dynamic
        * cap_scale
        * (clock_hz / NIAGARA_CLOCK_HZ)
        * (vdd / NIAGARA_VDD) ** 2
    )
    # Leakage: device count shrinks with capacitance scaling; leakage
    # power per device tracks the supply.
    leakage_scaled = leakage * cap_scale * (vdd / NIAGARA_VDD)
    return dynamic_scaled + leakage_scaled + NUM_FPUS * FPU_POWER_32NM


@dataclass(frozen=True)
class SystemPower:
    """Figure 5(b): core vs memory-hierarchy power and energy-delay."""

    core: float  #: W
    memory_hierarchy: PowerBreakdown
    execution_time: float  #: s

    @property
    def total(self) -> float:
        return self.core + self.memory_hierarchy.total

    @property
    def energy(self) -> float:
        return self.total * self.execution_time

    @property
    def energy_delay(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy * self.execution_time
