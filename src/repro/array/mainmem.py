"""Main-memory DRAM chip organization (paper section 2.1).

Maps a commodity DRAM part specification -- banks, data pins, internal
prefetch width, burst length, page size -- onto the generic bank
organization, and derives the main-memory timing interface (tRCD, CAS
latency, tRP, tRC, tRRD) and per-command energies from the array metrics.

The page-size concept is captured by constraining the total number of
sense amplifiers fired per activation to equal the page size; burst length
determines the bits moved by one READ/WRITE command and scales the column
and I/O energy accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.organization import ArrayMetrics, ArraySpec
from repro.tech.cells import CellTech

#: Interface/synchronization overhead of a DDR-style I/O path, one way (s):
#: read FIFO, serializer, and output launch synchronization.
DEFAULT_IO_OVERHEAD = 5.0e-9

#: Command capture, decode, and bank-control overhead of a synchronous
#: DRAM interface (roughly two interface clocks of a DDR3-1066 part),
#: added to tRCD, CAS latency, and tRP.
DEFAULT_COMMAND_OVERHEAD = 3.75e-9

#: Effective switched capacitance of the per-bit I/O path (F): output
#: driver, predriver, datapath clocking, and the on-die share of
#: termination.  I/O energy per bit is this capacitance times the core
#: supply squared, so older high-voltage parts pay quadratically more
#: (matching the IDD4R-derived ~15-23 pJ/bit of 1.5 V DDR3).
IO_EFFECTIVE_CAP_PER_BIT = 6.7e-12

#: Standby current of the always-on chip infrastructure (DLL, input
#: buffers, self-refresh control) as a power floor (W).
DEFAULT_STANDBY_FLOOR = 45e-3


@dataclass(frozen=True)
class MainMemorySpec:
    """A commodity main-memory DRAM chip, datasheet-style.

    ``cell_tech`` defaults to the commodity DRAM process; any registered
    page-mode technology is accepted.  The periphery defaults to the
    technology's registered ``default_periphery`` trait.
    """

    capacity_bits: int
    nbanks: int = 8
    data_pins: int = 8  #: x4/x8/x16 interface width
    burst_length: int = 8
    prefetch: int = 8  #: internal prefetch width, bits per pin
    page_bits: int = 8192
    io_overhead: float = DEFAULT_IO_OVERHEAD
    command_overhead: float = DEFAULT_COMMAND_OVERHEAD
    io_energy_per_bit: float | None = None  #: default: C_io * Vdd_cell^2
    standby_floor: float = DEFAULT_STANDBY_FLOOR
    cell_tech: CellTech = CellTech.COMM_DRAM
    periph_device_type: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell_tech", CellTech(self.cell_tech))
        for name in ("nbanks", "data_pins", "burst_length", "prefetch"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.burst_length > self.prefetch:
            # One column command can only burst out what was prefetched.
            raise ValueError(
                f"burst length {self.burst_length} exceeds prefetch "
                f"{self.prefetch}"
            )

    @property
    def column_bits(self) -> int:
        """Bits moved between the array and I/O per column command."""
        return self.data_pins * self.prefetch

    @property
    def burst_bits(self) -> int:
        """Bits transferred on the pins by one READ/WRITE command."""
        return self.data_pins * self.burst_length

    def array_spec(self) -> ArraySpec:
        """The low-level array specification this chip maps to."""
        periph = (
            self.periph_device_type
            or self.cell_tech.traits.default_periphery
        )
        return ArraySpec(
            capacity_bits=self.capacity_bits,
            output_bits=self.column_bits,
            assoc=1,
            nbanks=self.nbanks,
            cell_tech=self.cell_tech,
            periph_device_type=periph,
            page_bits=self.page_bits,
        )


@dataclass(frozen=True)
class MainMemoryTiming:
    """The main-memory DRAM timing interface (all in seconds)."""

    t_rcd: float  #: ACTIVATE to READ/WRITE (row to column delay)
    t_cas: float  #: READ to first data (CAS latency)
    t_rp: float  #: PRECHARGE to ACTIVATE (row precharge)
    t_ras: float  #: ACTIVATE to PRECHARGE (row active minimum)
    t_rc: float  #: ACTIVATE to ACTIVATE, same bank (row cycle)
    t_rrd: float  #: ACTIVATE to ACTIVATE, different banks
    t_burst: float  #: data burst duration on the pins

    @property
    def random_access(self) -> float:
        """Latency of a row-miss access: tRCD + CAS (paper Table 3 note)."""
        return self.t_rcd + self.t_cas


@dataclass(frozen=True)
class MainMemoryEnergies:
    """Per-command energies and standby power of the chip."""

    e_activate: float  #: ACTIVATE + eventual PRECHARGE of the page (J)
    e_read: float  #: one READ burst (J)
    e_write: float  #: one WRITE burst (J)
    p_refresh: float  #: average refresh power (W)
    p_standby: float  #: standby/leakage power (W)


def derive_timing(
    spec: MainMemorySpec, metrics: ArrayMetrics, clock_period: float = 0.0
) -> MainMemoryTiming:
    """Build the chip timing interface from evaluated array metrics.

    ``clock_period`` optionally quantizes every parameter up to whole
    interface clocks, as a real datasheet would.
    """
    t_rcd = (
        spec.command_overhead
        + metrics.t_htree_in
        + metrics.t_decode
        + metrics.t_bitline
        + metrics.t_sense
    )
    t_cas = (
        spec.command_overhead
        + metrics.t_htree_in  # column address distribution
        + metrics.t_decode  # column decode is a decoder-class path
        + metrics.t_htree_out
        + spec.io_overhead
    )
    # Precharge must first drop the wordline, then equalize the bitlines.
    t_rp = (
        spec.command_overhead
        + metrics.t_htree_in
        + metrics.t_wordline
        + metrics.t_precharge
    )
    t_ras = t_rcd + metrics.t_writeback
    t_rc = t_ras + t_rp
    t_rrd = max(metrics.t_interleave, t_rc / spec.nbanks)
    # Burst duration: DDR moves 2 bits per pin per clock; express relative
    # to the column cycle the array can sustain.
    t_burst = max(
        metrics.t_interleave,
        spec.burst_length / spec.prefetch * metrics.t_interleave,
    )
    if clock_period > 0.0:

        def quantize(t: float) -> float:
            return math.ceil(t / clock_period) * clock_period

        return MainMemoryTiming(
            t_rcd=quantize(t_rcd),
            t_cas=quantize(t_cas),
            t_rp=quantize(t_rp),
            t_ras=quantize(t_ras),
            t_rc=quantize(t_rc),
            t_rrd=quantize(t_rrd),
            t_burst=quantize(t_burst),
        )
    return MainMemoryTiming(
        t_rcd=t_rcd,
        t_cas=t_cas,
        t_rp=t_rp,
        t_ras=t_ras,
        t_rc=t_rc,
        t_rrd=t_rrd,
        t_burst=t_burst,
    )


def derive_energies(
    spec: MainMemorySpec, metrics: ArrayMetrics, vdd_cell: float = 1.0
) -> MainMemoryEnergies:
    """Per-command energies; ACTIVATE includes the paired precharge, as in
    the Micron power calculator's ACT energy accounting."""
    e_activate = metrics.e_activate + metrics.e_precharge
    per_bit = spec.io_energy_per_bit
    if per_bit is None:
        per_bit = IO_EFFECTIVE_CAP_PER_BIT * vdd_cell * vdd_cell
    io = spec.burst_bits * per_bit
    e_read = metrics.e_read_column + io
    e_write = metrics.e_write_column + io
    return MainMemoryEnergies(
        e_activate=e_activate,
        e_read=e_read,
        e_write=e_write,
        p_refresh=metrics.p_refresh,
        p_standby=metrics.p_leakage + spec.standby_floor,
    )
