"""Circuit models: logical effort, gates, driver chains, sensing, wires."""

from repro.circuits.comparator import Comparator, way_select_delay
from repro.circuits.crossbar import CrossbarMetrics, design_crossbar
from repro.circuits.drivers import ChainMetrics, WireLoad, build_chain
from repro.circuits.gates import Gate, folded_strip_area, horowitz, inverter, nand
from repro.circuits.logical_effort import SizedPath, optimal_stages, size_path
from repro.circuits.repeaters import (
    RepeatedWireDesign,
    optimal_repeated_wire,
    repeated_wire,
)
from repro.circuits.senseamp import SenseAmp, charge_share_signal

__all__ = [
    "ChainMetrics",
    "Comparator",
    "CrossbarMetrics",
    "Gate",
    "RepeatedWireDesign",
    "SenseAmp",
    "SizedPath",
    "WireLoad",
    "build_chain",
    "charge_share_signal",
    "design_crossbar",
    "folded_strip_area",
    "horowitz",
    "inverter",
    "nand",
    "optimal_repeated_wire",
    "optimal_stages",
    "repeated_wire",
    "size_path",
    "way_select_delay",
]
