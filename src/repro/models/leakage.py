"""Leakage-power modeling helpers (eCACTI lineage).

CACTI 4/5 adopted eCACTI's leakage methodology; CACTI-D adds the sleep-
transistor option used to match the 65 nm Xeon L3 (inactive mats' leakage
halved) and evaluates subthreshold leakage at operating temperature.
The array model applies the sleep-transistor cut itself; this module
exposes the temperature scaling as a standalone utility for studies that
post-process solved designs.
"""

from __future__ import annotations

import math

from repro.tech.devices import TEMPERATURE_LEAKAGE_FACTOR

#: Reference temperatures of the built-in leakage factor (K).
ROOM_TEMPERATURE = 300.0
OPERATING_TEMPERATURE = 360.0

#: Subthreshold leakage doubles roughly every this many kelvin.
_DOUBLING_KELVIN = (OPERATING_TEMPERATURE - ROOM_TEMPERATURE) / math.log2(
    TEMPERATURE_LEAKAGE_FACTOR
)


def temperature_factor(temperature_k: float) -> float:
    """Leakage multiplier at ``temperature_k`` relative to 300 K.

    Exponential in temperature, anchored so the built-in operating point
    reproduces :data:`TEMPERATURE_LEAKAGE_FACTOR`.
    """
    return 2.0 ** ((temperature_k - ROOM_TEMPERATURE) / _DOUBLING_KELVIN)


def rescale_leakage(
    p_leakage: float, temperature_k: float
) -> float:
    """Rescale a solved leakage power to a different die temperature."""
    return (
        p_leakage
        * temperature_factor(temperature_k)
        / TEMPERATURE_LEAKAGE_FACTOR
    )

