"""Sense amplifiers for the two sensing schemes.

Current-latch sensing (SRAM, STT-RAM) uses a latch-type amplifier fired
once the bitlines have developed a required differential; its latching
delay is a few gate delays and largely independent of the bitline because
the bitline is only partially swung.

Charge-share sensing (DRAM) is qualitatively different: the shared signal
``dV = (VDD/2) * Cs / (Cs + Cbl)`` seeds a regenerative latch that must
restore the *full bitline* (and thereby the cell -- this is the writeback
of the destructive readout) to full swing, so its time constant is set by
the bitline capacitance and its latching time by ``ln(VDD / dV)``.

The methods are named for the scheme (``latch_*`` / ``restore_*``).  The
charge-share regeneration time is computed over whole candidate arrays
in :func:`repro.array.kernels.subarray_terms`, from :attr:`SenseAmp.r_latch`
and :attr:`SenseAmp.c_internal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.gates import folded_strip_area
from repro.tech.devices import DeviceParams

#: Total transistor width of one sense-amp latch, in feature sizes.
_SA_WIDTH_F = 24.0

#: Bitline-pitch multiple available to one sense amp (interleaved/shared
#: layout lets one amp occupy several bitline pitches).
SA_PITCH_MULT = 4.0

#: Required current-latch bitline differential as a fraction of VDD.
SRAM_SENSE_SWING = 0.10

#: Minimum usable charge-share sense signal (V): latch offset plus noise
#: margin.
MIN_CHARGE_SHARE_SIGNAL = 0.06

#: Multiplier on r_eff/width for the latch's regeneration resistance; the
#: cross-coupled pair is weaker than a full inverter drive.
_LATCH_R_FACTOR = 1.7


@dataclass(frozen=True)
class SenseAmp:
    """One differential sense amplifier in a given peripheral technology."""

    device: DeviceParams
    feature_size: float

    @property
    def width(self) -> float:
        return _SA_WIDTH_F * self.feature_size

    @property
    def c_internal(self) -> float:
        """Internal latch node capacitance (F)."""
        return self.width * (self.device.c_gate + self.device.c_drain) / 2.0

    @property
    def r_latch(self) -> float:
        """Effective regeneration resistance of the latch (ohm).

        The cross-coupled pair devotes ~1/4 of the amp's total width to
        each pull device, and regenerates more weakly than a driven gate.
        """
        return _LATCH_R_FACTOR * self.device.r_eff / (self.width / 4.0)

    def latch_delay(self) -> float:
        """Latching delay once the required differential exists (s)."""
        tau = self.r_latch * self.c_internal
        return tau * math.log(1.0 / SRAM_SENSE_SWING)

    def latch_energy(self, c_bitline: float) -> float:
        """Energy of one current-latch sense: limited bitline swing + latch
        flip (J)."""
        vdd = self.device.vdd
        bitline = c_bitline * vdd * (SRAM_SENSE_SWING * vdd)
        latch = self.c_internal * vdd * vdd
        return bitline + latch

    def restore_energy(self, c_bitline: float, vdd_cell: float) -> float:
        """Energy of one charge-share sense+restore: half-swing on both
        bitlines (J).

        Bitlines start precharged at VDD/2; sensing drives one rail up and
        one down, so each of the folded pair swings VDD/2.
        """
        pair = 2.0 * c_bitline * vdd_cell * (vdd_cell / 2.0)
        latch = self.c_internal * vdd_cell * vdd_cell
        return pair + latch

    def area(self) -> float:
        """Layout area of one amp, folded to its share of bitline pitch (m^2)."""
        pitch = SA_PITCH_MULT * 2.0 * self.feature_size
        area, _ = folded_strip_area(self.width, pitch, self.feature_size)
        return area

    def leakage(self) -> float:
        """Static leakage of one amp (W); latches are cut off when idle."""
        return self.device.leakage_power(self.width / 2.0) * 0.25


def charge_share_signal(storage_cap: float, c_bitline: float, vdd_cell: float
                        ) -> float:
    """DRAM bitline signal from capacitive charge redistribution (V)."""
    return (vdd_cell / 2.0) * storage_cap / (storage_cap + c_bitline)
