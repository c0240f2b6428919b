"""Driver chains: logical-effort-sized buffer chains driving RC loads.

Used for wordline drivers, predecoder drivers, bitline-mux drivers, output
drivers, and H-tree branch drivers.  A chain is sized with
:mod:`repro.circuits.logical_effort`, realized as concrete gates, and then
evaluated for delay (Horowitz, slope-propagated), dynamic energy, leakage,
and layout area (optionally pitch-matched/folded).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import logical_effort as le
from repro.circuits.gates import Gate, horowitz, inverter, min_width, nand
from repro.tech.devices import DeviceParams


@dataclass(frozen=True)
class ChainMetrics:
    """Evaluated properties of a sized driver chain."""

    delay: float  #: input-to-load-switched delay (s)
    ramp_out: float  #: output ramp time, for slope propagation (s)
    energy: float  #: dynamic energy per switching event (J)
    leakage: float  #: static leakage power (W)
    area: float  #: layout area (m^2)
    num_stages: int
    c_in: float  #: input capacitance presented to the previous stage (F)


@dataclass(frozen=True)
class WireLoad:
    """A distributed RC wire hanging off the chain output."""

    resistance: float  #: total wire resistance (ohm)
    capacitance: float  #: total wire capacitance (F)


def _widths_from_cap(device: DeviceParams, c_in: float) -> float:
    """NMOS width of an inverter whose total input cap is ``c_in``."""
    return c_in / (device.c_gate * (1.0 + device.n_to_p_ratio))


def build_chain(
    device: DeviceParams,
    feature_size: float,
    c_load: float,
    wire: WireLoad | None = None,
    first_gate_inputs: int = 1,
    pitch: float | None = None,
    c_in_floor: float | None = None,
    voltage_swing: float | None = None,
) -> ChainMetrics:
    """Size and evaluate a buffer chain driving ``c_load`` (+ optional wire).

    ``first_gate_inputs`` > 1 makes the first stage a NAND of that many
    inputs (decoder row gates, enable-gated drivers).  ``pitch`` folds every
    stage into the given layout pitch.  ``voltage_swing`` overrides the
    energy swing (e.g. a boosted DRAM wordline at VPP).
    """
    w_min = min_width(device, feature_size)
    c_unit = w_min * device.c_gate * (1.0 + device.n_to_p_ratio)
    c_in = max(c_unit, c_in_floor or 0.0)

    c_total = c_load + (wire.capacitance if wire else 0.0)
    g_first = le.le_nand(first_gate_inputs) if first_gate_inputs > 1 else 1.0
    sized = le.size_path(c_total, c_in, logical_efforts=(g_first,))

    gates: list[Gate] = []
    for i, cap in enumerate(sized.input_caps):
        if i == 0 and first_gate_inputs > 1:
            # NAND input cap per input = (n*w + 2w) c_gate with stack sizing.
            w = cap / (device.c_gate * (first_gate_inputs + device.n_to_p_ratio))
            gates.append(nand(device, first_gate_inputs, max(w, w_min)))
        else:
            gates.append(inverter(device, max(_widths_from_cap(device, cap),
                                              w_min)))

    delay = 0.0
    ramp = 0.0
    for i, gate in enumerate(gates):
        if i + 1 < len(gates):
            stage_load = gates[i + 1].c_in
            d, ramp = gate.delay(stage_load, ramp)
            delay += d
        else:
            # Final stage drives the wire + load through the wire resistance.
            r_wire = wire.resistance if wire else 0.0
            c_wire = wire.capacitance if wire else 0.0
            tau = gate.r_drive * (gate.c_out + c_wire + c_load)
            tau += r_wire * (c_wire / 2.0 + c_load)
            d = horowitz(ramp, tau)
            delay += d
            ramp = 2.0 * d

    vdd = device.vdd
    swing = voltage_swing if voltage_swing is not None else vdd
    # Plain left-to-right sums over the stages: ``sum()`` compensates
    # float sums from Python 3.12 on, and the array kernel in
    # repro.array.kernels repeats this exact accumulation order.
    c_switched = leakage = area = 0.0
    for g in gates:
        c_switched += g.c_in + g.c_out
        leakage += g.leakage()
        area += g.area(feature_size, pitch)
    c_switched += wire.capacitance if wire else 0.0
    c_switched += c_load
    energy = c_switched * swing * swing

    return ChainMetrics(
        delay=delay,
        ramp_out=ramp,
        energy=energy,
        leakage=leakage,
        area=area,
        num_stages=len(gates),
        c_in=gates[0].c_in,
    )
