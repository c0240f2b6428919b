"""Power accounting: hierarchy breakdown, system power, energy-delay."""

from repro.power.hierarchy import (
    BUS_ENERGY_PER_BIT,
    HierarchyEnergyModel,
    LevelEnergy,
    MainMemoryEnergy,
    PowerBreakdown,
    hierarchy_power,
)
from repro.power.powerdown import (
    PowerDownOutcome,
    PowerDownPolicy,
    PowerState,
    evaluate_policy,
    idle_intervals_from_rate,
)
from repro.power.system import SystemPower, scaled_core_power
from repro.power.thermal import ThermalEstimate, temperature_spread

__all__ = [
    "BUS_ENERGY_PER_BIT",
    "HierarchyEnergyModel",
    "LevelEnergy",
    "MainMemoryEnergy",
    "PowerBreakdown",
    "PowerDownOutcome",
    "PowerDownPolicy",
    "PowerState",
    "SystemPower",
    "ThermalEstimate",
    "evaluate_policy",
    "hierarchy_power",
    "idle_intervals_from_rate",
    "scaled_core_power",
    "temperature_spread",
]
