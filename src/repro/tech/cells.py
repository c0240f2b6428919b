"""Built-in memory-cell technologies: SRAM, LP-DRAM, and COMM-DRAM.

Encodes paper Table 1 ("Key characteristics of SRAM, LP-DRAM, and
COMM-DRAM technologies") twice over: the *behavioral* side as
:class:`~repro.tech.registry.CellTraits` bundles registered with the
technology registry, and the *electrical* side as :class:`CellParams`
builders (cell geometry, access-device drive/leakage, storage
capacitance, boosted wordline voltage, retention period).

Cell areas follow the paper: ~146 F^2 for the 6T SRAM cell, 30 F^2 for the
1T1C LP-DRAM cell (within the 19-26 F^2 range of the cited 180-65 nm cells,
with margin for scaling pessimism), and 6 F^2 for the COMM-DRAM trench/
stack cell.  Storage capacitance is held constant across nodes (20 fF
LP-DRAM, 30 fF COMM-DRAM) since cell capacitance must be maintained for
signal-to-noise and retention as VDD scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.tech.registry import (
    CellTech,
    CellTraits,
    MemoryTechnology,
    SensingScheme,
    register,
)
from repro.tech import registry as _registry

__all__ = [
    "CellParams",
    "CellTech",
    "CellTraits",
    "MemoryTechnology",
    "SensingScheme",
    "cell",
    "comm_dram_cell",
    "lp_dram_cell",
    "sram_cell",
]


@dataclass(frozen=True)
class CellParams:
    """Geometry and electricals of one memory cell technology at one node."""

    tech: CellTech
    feature_size: float  #: F (m)
    area_f2: float  #: cell area in F^2
    width_f: float  #: cell extent along the wordline, in F (bitline pitch)
    height_f: float  #: cell extent along the bitline, in F (wordline pitch)
    vdd_cell: float  #: storage/core supply voltage (V)
    access_width_f: float  #: access transistor width in F
    access_i_on: float  #: access device drive current per width (A/m)
    access_i_off: float  #: access device subthreshold leakage per width (A/m)
    access_c_drain: float  #: access device drain capacitance per width (F/m)
    access_c_junction: float  #: fixed bitline-contact junction cap per cell (F)
    access_r_channel: float  #: access device channel resistance x width (ohm*m)
    storage_cap: float | None = None  #: DRAM storage capacitance (F)
    vpp: float | None = None  #: boosted wordline voltage (V)
    retention_time: float | None = None  #: refresh period (s)

    @property
    def traits(self) -> CellTraits:
        return self.tech.traits

    @property
    def area(self) -> float:
        """Physical cell area (m^2)."""
        return self.area_f2 * self.feature_size**2

    @property
    def width(self) -> float:
        """Cell width along the wordline direction (m)."""
        return self.width_f * self.feature_size

    @property
    def height(self) -> float:
        """Cell height along the bitline direction (m)."""
        return self.height_f * self.feature_size

    @property
    def access_width(self) -> float:
        """Access transistor width (m)."""
        return self.access_width_f * self.feature_size

    @property
    def read_current(self) -> float:
        """Current available to discharge/charge the bitline on a read (A).

        For actively-driven (current-latch) cells this is the series
        access + driver stack, derated to half the nominal access-device
        saturation current.  For charge-share cells reads are passive,
        so this is only used for writeback timing.
        """
        return 0.5 * self.access_i_on * self.access_width

    @property
    def wordline_voltage(self) -> float:
        """Voltage swung on the wordline when selecting this cell (V)."""
        return self.vpp if self.vpp is not None else self.vdd_cell

    def retention_leakage_budget(self) -> float | None:
        """Maximum cell leakage current compatible with the retention spec (A).

        A refreshed cell must retain > ~half its stored charge over a
        retention period: I_max = Cs * (VDD/2) / t_ret.  Returns None for
        technologies that do not need refresh.
        """
        if not self.tech.traits.needs_refresh:
            return None
        assert self.storage_cap is not None and self.retention_time is not None
        return self.storage_cap * (self.vdd_cell / 2.0) / self.retention_time


def _f(node_nm: float) -> float:
    return node_nm * 1e-9


def _loglin(table: dict[int, float], node_nm: float) -> float:
    """Log-linear interpolation of a per-node voltage table."""
    nodes = sorted(table)
    node_nm = min(max(node_nm, nodes[0]), nodes[-1])
    if node_nm in table:
        return table[int(node_nm)]
    for lo, hi in zip(nodes, nodes[1:]):
        if lo <= node_nm <= hi:
            frac = (math.log(node_nm) - math.log(lo)) / (
                math.log(hi) - math.log(lo)
            )
            return math.exp(
                (1 - frac) * math.log(table[lo]) + frac * math.log(table[hi])
            )
    raise AssertionError("unreachable")


#: DRAM core supply scaling: commodity parts ran 1.8 V (DDR2-era 90 nm)
#: down to the 1.0 V the paper projects at 32 nm (Table 1); LP-DRAM starts
#: lower and converges to the same 1.0 V.
_COMM_VDD = {90: 1.8, 65: 1.45, 45: 1.2, 32: 1.0}
_LP_VDD = {90: 1.2, 65: 1.2, 45: 1.1, 32: 1.0}

#: Boosted wordline offset above the core supply: VPP must exceed VDD by a
#: full (high) cell Vth plus margin.  At 32 nm these reproduce Table 1's
#: 2.6 V (COMM) and 1.5 V (LP).
_COMM_VPP_OFFSET = 1.6
_LP_VPP_OFFSET = 0.5


#: SRAM cell-transistor subthreshold leakage per width at 25 C (A/m),
#: per node: long-channel devices, but thinning oxides and shrinking Vth
#: still raise leakage each generation.
_SRAM_CELL_IOFF = {90: 0.020, 65: 0.028, 45: 0.036, 32: 0.045}


def sram_cell(node_nm: float, vdd: float) -> CellParams:
    """6T SRAM cell on long-channel ITRS HP devices (paper Table 1)."""
    return CellParams(
        tech=CellTech("sram"),
        feature_size=_f(node_nm),
        area_f2=146.0,
        width_f=17.0,
        height_f=8.6,
        vdd_cell=vdd,
        access_width_f=1.31,
        access_i_on=1400.0,  # A/m; long-channel HP-class cell device
        access_i_off=_loglin(_SRAM_CELL_IOFF, node_nm),
        access_c_drain=0.4e-9,
        access_c_junction=0.05e-15,
        access_r_channel=2.0e-3,  # ohm*m
    )


def lp_dram_cell(node_nm: float) -> CellParams:
    """1T1C logic-process DRAM cell, intermediate-oxide access device.

    20 fF storage, VPP = 1.5 V, 0.12 ms retention (paper Table 1).  The thin
    intermediate oxide gives a fast access device at the cost of high cell
    leakage, hence the short retention period.
    """
    vdd = _loglin(_LP_VDD, node_nm)
    return CellParams(
        tech=CellTech("lp-dram"),
        feature_size=_f(node_nm),
        area_f2=30.0,
        width_f=6.0,
        height_f=5.0,
        vdd_cell=vdd,
        access_width_f=1.5,
        access_i_on=900.0,
        access_i_off=1.5e-3,  # sized to just meet the 0.12 ms retention
        access_c_drain=0.45e-9,
        access_c_junction=0.10e-15,
        access_r_channel=3.5e-3,
        storage_cap=20e-15,
        vpp=vdd + _LP_VPP_OFFSET,
        retention_time=0.12e-3,
    )


def comm_dram_cell(node_nm: float) -> CellParams:
    """1T1C commodity DRAM cell, thick conventional-oxide access device.

    30 fF storage, VPP = 2.6 V, 64 ms retention (paper Table 1).  The thick
    oxide and high Vth make the access device slow but extremely low
    leakage, enabling the long retention period.
    """
    vdd = _loglin(_COMM_VDD, node_nm)
    return CellParams(
        tech=CellTech("comm-dram"),
        feature_size=_f(node_nm),
        area_f2=6.0,
        width_f=3.0,
        height_f=2.0,
        vdd_cell=vdd,
        access_width_f=1.0,
        access_i_on=320.0,
        access_i_off=2e-8,
        access_c_drain=0.35e-9,
        access_c_junction=0.20e-15,
        # Channel resistance x width improves with scaling (structured
        # cells, higher mobility) roughly in proportion to F, keeping the
        # absolute access resistance -- and hence tRC -- nearly constant
        # across generations, as commodity parts exhibit.
        access_r_channel=9.0e-3 * (node_nm / 78.0),
        storage_cap=30e-15,
        vpp=vdd + _COMM_VPP_OFFSET,
        retention_time=64e-3,
    )


#: The 6T SRAM cell: actively-driven differential bitlines, latch sensing,
#: non-destructive reads, two inverter leakage paths per cell, column
#: muxing legal, peripheral (logic) supply and top-metal routing.
SRAM_TRAITS = CellTraits(
    sensing=SensingScheme.CURRENT_LATCH,
    destructive_read=False,
    folded_bitline=False,
    wordline_gates_per_cell=2.0,
    sense_strip_height_f=20.0,
    column_mux_allowed=True,
    supports_page_mode=False,
    max_bitline_cells=None,
    needs_refresh=False,
    cell_leak_paths=2.0,
    precharge_swing_fraction=0.10,
    precise_precharge=False,
    write_swing_fraction=1.0,
    write_pulse_time=0.0,
    bitline_wire="local",
    htree_wire="global",
    default_periphery="hp-long-channel",
    sleep_transistors_effective=True,
)

#: Shared 1T1C DRAM behavior: destructive charge-share readout on folded
#: bitlines with a 512-cell sensing limit, VDD/2 precharge to reference
#: precision, restore-as-write-back, refresh, no column muxing (the open
#: row *is* the page).
_DRAM_TRAITS = dict(
    sensing=SensingScheme.CHARGE_SHARE,
    destructive_read=True,
    folded_bitline=True,
    wordline_gates_per_cell=1.0,
    sense_strip_height_f=40.0,
    column_mux_allowed=False,
    supports_page_mode=True,
    max_bitline_cells=512,
    needs_refresh=True,
    cell_leak_paths=0.0,
    precharge_swing_fraction=0.5,
    precise_precharge=True,
    write_swing_fraction=0.5,
    write_pulse_time=0.0,
)

#: LP-DRAM embeds in a logic process: copper bitlines, fast top-metal
#: H-tree, HP long-channel periphery (paper Table 1).
LP_DRAM_TRAITS = CellTraits(
    bitline_wire="local",
    htree_wire="global",
    default_periphery="hp-long-channel",
    sleep_transistors_effective=False,
    **_DRAM_TRAITS,
)

#: COMM-DRAM is a commodity DRAM process: tungsten bitlines, semi-global
#: (intermediate-plane) H-tree at best, LSTP periphery (paper Table 1).
COMM_DRAM_TRAITS = CellTraits(
    bitline_wire="local-tungsten",
    htree_wire="semi-global",
    default_periphery="lstp",
    sleep_transistors_effective=False,
    **_DRAM_TRAITS,
)


register(MemoryTechnology(
    name="sram",
    traits=SRAM_TRAITS,
    cell_builder=lambda node_nm, periph_vdd: sram_cell(node_nm, periph_vdd),
))
register(MemoryTechnology(
    name="lp-dram",
    traits=LP_DRAM_TRAITS,
    # DRAM cells use their own core supply regardless of the periphery.
    cell_builder=lambda node_nm, periph_vdd: lp_dram_cell(node_nm),
))
register(MemoryTechnology(
    name="comm-dram",
    traits=COMM_DRAM_TRAITS,
    cell_builder=lambda node_nm, periph_vdd: comm_dram_cell(node_nm),
))


@lru_cache(maxsize=None)
def cell(tech: CellTech, node_nm: float, periph_vdd: float) -> CellParams:
    """Build the cell parameters for ``tech`` at a node.

    Cached: parameters are pure functions of the arguments and
    :class:`CellParams` is frozen, so every candidate organization in an
    optimizer sweep shares one instance.

    ``periph_vdd`` is the peripheral-circuit supply; technologies whose
    cells share the logic supply adopt it (paper Table 1 lists 0.9 V at
    32 nm for SRAM, the HP supply), while technologies with their own
    core supply (both DRAMs) ignore it.
    """
    return _registry.get(tech).build_cell(node_nm, periph_vdd)
