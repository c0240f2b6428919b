"""Aggregate model views: breakdowns, leakage/refresh utilities, DDR grades."""

from repro.models.area import AreaBreakdown, area_breakdown
from repro.models.delay import DelayBreakdown, delay_breakdown
from repro.models.energy import EnergyBreakdown, dynamic_power, energy_breakdown
from repro.models.leakage import (
    OPERATING_TEMPERATURE,
    rescale_leakage,
    temperature_factor,
)
from repro.models.refresh import RefreshSchedule, refresh_schedule
from repro.models.timing_dram import (
    DDR3_1066,
    DDR4_3200,
    DatasheetTiming,
    SpeedGrade,
    quantize,
    to_main_memory_timing,
)

__all__ = [
    "AreaBreakdown",
    "DDR3_1066",
    "DDR4_3200",
    "DatasheetTiming",
    "DelayBreakdown",
    "EnergyBreakdown",
    "OPERATING_TEMPERATURE",
    "RefreshSchedule",
    "SpeedGrade",
    "area_breakdown",
    "delay_breakdown",
    "dynamic_power",
    "energy_breakdown",
    "quantize",
    "refresh_schedule",
    "rescale_leakage",
    "temperature_factor",
    "to_main_memory_timing",
]
