"""CMOS gate primitives: caps, resistances, delay, and the gate-area model.

CACTI-D sizes peripheral circuitry with the method of logical effort and
computes stage delays with the Horowitz slope-aware approximation.  Its
analytical gate-area model makes areas sensitive to transistor sizing:
transistors wider than the pitch they must fit in (wordline drivers matched
to the wordline pitch, sense amplifiers matched to the bitline pitch) get
*folded* into multiple fingers, growing the layout along the free axis.
This is what lets a single framework capture the very different pitch
constraints of SRAM and DRAM arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tech.devices import DeviceParams

#: Contacted gate (poly) pitch in feature sizes: one finger of any
#: transistor occupies this much layout along the gate direction.
CONTACTED_PITCH_F = 4.0

#: Layout overhead (diffusion spacing, well separation) per gate, in F.
_GATE_OVERHEAD_F = 6.0

#: Minimum transistor width in feature sizes.
MIN_WIDTH_F = 2.0


def horowitz(t_ramp: float, tau: float, switching: float = 0.5) -> float:
    """Horowitz delay approximation for a gate with input slope ``t_ramp``.

    ``tau`` is the intrinsic RC time constant of the switching gate and
    ``switching`` the input switching threshold as a fraction of VDD.
    Reduces to ``tau * ln(1/switching)`` for a step input.
    """
    if tau <= 0.0:
        return 0.0
    a = t_ramp / tau
    return tau * math.sqrt(
        math.log(switching) ** 2 + 2.0 * a * 0.5 * (1.0 - switching)
    )


@dataclass(frozen=True)
class Gate:
    """A static CMOS gate of a given type and NMOS/PMOS sizing.

    ``w_n``/``w_p`` are per-input widths in metres.  ``stack`` is the series
    stack depth on the critical pull network (2 for NAND2 pull-down, etc.).
    """

    device: DeviceParams
    num_inputs: int
    w_n: float
    w_p: float
    stack: int = 1

    @property
    def c_in(self) -> float:
        """Input capacitance presented on one input (F)."""
        return (self.w_n + self.w_p) * self.device.c_gate

    @property
    def c_out(self) -> float:
        """Parasitic drain capacitance on the output node (F)."""
        drains = self.w_n * self.stack + self.w_p
        return drains * self.device.c_drain

    @property
    def r_drive(self) -> float:
        """Effective output resistance of the critical pull network (ohm)."""
        return self.device.r_eff * self.stack / self.w_n

    def delay(self, c_load: float, t_ramp: float = 0.0) -> tuple[float, float]:
        """(propagation delay, output ramp time) driving ``c_load`` (s)."""
        tau = self.r_drive * (self.c_out + c_load)
        d = horowitz(t_ramp, tau)
        return d, 2.0 * d

    def leakage(self) -> float:
        """Average static leakage power (W).

        Half the input states leak through the NMOS network, half through
        the PMOS; series stacks reduce subthreshold leakage roughly by the
        stack depth.
        """
        w_leak = (
            self.w_n * self.num_inputs / self.stack
            + self.w_p * self.num_inputs / self.device.n_to_p_ratio
        ) / 2.0
        return self.device.leakage_power(w_leak)

    def area(self, feature_size: float, pitch: float | None = None) -> float:
        """Layout area (m^2), folding transistors to honour ``pitch``.

        Without a pitch constraint the gate is laid out freely; with one,
        each transistor is folded so its diffusion fits inside the pitch
        and the layout grows along the unconstrained axis.
        """
        w_total = (self.w_n + self.w_p) * self.num_inputs
        if pitch is None:
            height = self.w_n + self.w_p + _GATE_OVERHEAD_F * feature_size
            width = self.num_inputs * CONTACTED_PITCH_F * feature_size
            return height * width
        area, _ = folded_strip_area(w_total, pitch, feature_size)
        return area


def folded_strip_area(
    w_total: float, pitch: float, feature_size: float
) -> tuple[float, int]:
    """Area of transistors of total width ``w_total`` folded into ``pitch``.

    Returns ``(area, fingers)``.  The diffusion dimension of each finger is
    limited to what fits inside the pitch (less wiring overhead); extra
    width folds into more fingers at the contacted gate pitch.  This is the
    pitch-matching model used for wordline drivers and sense amplifiers.
    """
    usable = max(pitch - 2.0 * feature_size, feature_size)
    fingers = max(1, math.ceil(w_total / usable))
    area = fingers * CONTACTED_PITCH_F * feature_size * pitch
    return area, fingers


def inverter(device: DeviceParams, w_n: float) -> Gate:
    """Inverter with PMOS sized for equal rise/fall drive."""
    return Gate(device, num_inputs=1, w_n=w_n, w_p=w_n * device.n_to_p_ratio)


def nand(device: DeviceParams, num_inputs: int, w_n: float) -> Gate:
    """NAND gate; NMOS stack upsized to preserve pull-down drive."""
    return Gate(
        device,
        num_inputs=num_inputs,
        w_n=w_n * num_inputs,
        w_p=w_n * device.n_to_p_ratio,
        stack=num_inputs,
    )


def min_width(device: DeviceParams, feature_size: float) -> float:
    """Minimum usable transistor width in this technology (m)."""
    del device  # width floor is lithographic, not electrical
    return MIN_WIDTH_F * feature_size
