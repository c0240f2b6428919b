"""Row decoders, one object each: the reference oracle of the decoder
terms :func:`repro.array.kernels.subarray_terms` computes.

Follows the CACTI/Amrutur-Horowitz structure: address bits are grouped into
3-bit predecode blocks (NAND3 -> 8 one-hot lines); predecoded lines run
along the subarray edge to per-row gates (a NAND combining one line from
each block) whose output feeds the wordline driver chain.  All chains are
sized by logical effort; wordline drivers are folded to the wordline pitch
(the memory-cell height), which is where SRAM and DRAM decoders diverge in
area.

DRAM wordlines swing to the boosted VPP; the energy accounting charges the
wordline swing at VPP with a charge-pump overhead factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.kernels import (
    _PREDEC_BITS,
    CHARGE_PUMP_OVERHEAD,
    LEVEL_SHIFTER_AREA,
)
from repro.circuits.drivers import ChainMetrics, WireLoad, build_chain
from repro.tech.devices import DeviceParams


@dataclass(frozen=True)
class WordlineLoad:
    """Electrical load of one wordline across a subarray."""

    resistance: float  #: total wordline resistance (ohm)
    capacitance: float  #: total wordline capacitance incl. gates (F)
    pitch: float  #: wordline pitch = memory cell height (m)
    voltage: float  #: swing (VDD, or VPP for DRAM)


@dataclass(frozen=True)
class DecoderMetrics:
    """Delay/energy/leakage/area of a complete row-decode path."""

    delay: float  #: address-valid to wordline-high (s)
    energy: float  #: dynamic energy per access (J)
    leakage: float  #: static leakage of the whole decoder (W)
    area: float  #: layout area (m^2)
    wordline_delay: float  #: portion spent on the wordline driver + RC (s)

    def __add__(self, other: "DecoderMetrics") -> "DecoderMetrics":
        return DecoderMetrics(
            delay=max(self.delay, other.delay),
            energy=self.energy + other.energy,
            leakage=self.leakage + other.leakage,
            area=self.area + other.area,
            wordline_delay=max(self.wordline_delay, other.wordline_delay),
        )


def design_decoder(
    device: DeviceParams,
    feature_size: float,
    num_rows: int,
    wordline: WordlineLoad,
    predec_wire: WireLoad,
) -> DecoderMetrics:
    """Design the row decoder for a subarray of ``num_rows``.

    ``predec_wire`` is the RC of one predecoded line running the height of
    the subarray (it must reach every row gate).
    """
    if num_rows < 2:
        # Degenerate single-row structure: just the wordline driver.
        wl = _wordline_chain(device, feature_size, wordline, 1)
        return DecoderMetrics(
            delay=wl.delay,
            energy=wl.energy,
            leakage=wl.leakage,
            area=wl.area,
            wordline_delay=wl.delay,
        )

    addr_bits = max(1, math.ceil(math.log2(num_rows)))
    num_blocks = max(1, math.ceil(addr_bits / _PREDEC_BITS))
    lines_per_block = 2 ** min(_PREDEC_BITS, addr_bits)

    # Wordline driver chain: NAND row gate combining the predecoded lines,
    # then inverters up to the wordline load, folded into the wordline pitch.
    wl_chain = _wordline_chain(device, feature_size, wordline, num_blocks)

    # Each predecoded line loads: the wire down the subarray edge plus the
    # row-gate input cap of every row it can select.
    rows_per_line = num_rows / lines_per_block
    predec_load = wl_chain.c_in * rows_per_line
    predec_chain = build_chain(
        device, feature_size, predec_load, predec_wire, _PREDEC_BITS
    )

    delay = predec_chain.delay + wl_chain.delay

    # Per access: one line per predecode block rises and one falls (2 line
    # swings), one row gate + wordline driver fires.
    energy = 2.0 * num_blocks * predec_chain.energy + wl_chain.energy

    # Leakage: every row has a gate + driver; each block has 2^b line drivers.
    leakage = (
        num_rows * wl_chain.leakage
        + num_blocks * lines_per_block * predec_chain.leakage
    )
    area = (
        num_rows * wl_chain.area
        + num_blocks * lines_per_block * predec_chain.area
    )
    return DecoderMetrics(
        delay=delay,
        energy=energy,
        leakage=leakage,
        area=area,
        wordline_delay=wl_chain.delay,
    )


def _wordline_chain(
    device: DeviceParams,
    feature_size: float,
    wordline: WordlineLoad,
    first_gate_inputs: int = 1,
) -> ChainMetrics:
    boosted = wordline.voltage > device.vdd
    chain = build_chain(
        device,
        feature_size,
        c_load=0.0,
        wire=WireLoad(wordline.resistance, wordline.capacitance),
        first_gate_inputs=first_gate_inputs,
        pitch=wordline.pitch,
        voltage_swing=wordline.voltage,
    )
    if not boosted:
        return chain
    # Boosted wordlines pay the charge-pump overhead on the swung energy.
    return ChainMetrics(
        delay=chain.delay,
        ramp_out=chain.ramp_out,
        energy=chain.energy * CHARGE_PUMP_OVERHEAD,
        leakage=chain.leakage,
        area=chain.area * LEVEL_SHIFTER_AREA,
        num_stages=chain.num_stages,
        c_in=chain.c_in,
    )
