"""Interconnect models following Ron Ho's wire scaling projections.

CACTI-D uses wire data from Ho's scaling studies for two planes of on-chip
interconnect -- semi-global (intermediate metal, used inside banks for
wordline straps, bitline routing, and intra-mat wiring) and global (top
metal, used for H-tree address/data distribution across a bank).  Commodity
DRAM additionally uses tungsten for its array-local bitlines (paper Table 1),
which is markedly more resistive than copper.

Resistance and capacitance per unit length are derived from geometry:

* ``R' = rho_eff / (w * t)`` with ``w = pitch / 2`` and ``t = aspect * w``;
  ``rho_eff`` includes barrier and surface-scattering penalties that grow as
  wires shrink.
* ``C' = 2 e0 (k_horiz * t/s + k_vert * w/h) + c_fringe`` for a wire between
  two neighbours at spacing ``s = pitch / 2`` over/under dielectric of
  height ``h ~= t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Vacuum permittivity (F/m).
EPS0 = 8.854e-12

#: Fringe capacitance contribution per unit length (F/m); roughly constant
#: across nodes per Ho's data.
_C_FRINGE = 40e-12

#: Bulk resistivity of copper and tungsten (ohm*m).
_RHO_CU_BULK = 1.8e-8
_RHO_W_BULK = 5.6e-8


@dataclass(frozen=True)
class WireParams:
    """Geometry and per-length electricals of one wire plane at one node."""

    name: str
    pitch: float  #: wire pitch (m)
    aspect_ratio: float  #: thickness / width
    resistivity: float  #: effective resistivity incl. size effects (ohm*m)
    k_ild: float  #: inter-layer dielectric constant

    @property
    def width(self) -> float:
        return self.pitch / 2.0

    @property
    def thickness(self) -> float:
        return self.aspect_ratio * self.width

    @property
    def r_per_m(self) -> float:
        """Resistance per unit length (ohm/m)."""
        return self.resistivity / (self.width * self.thickness)

    @property
    def c_per_m(self) -> float:
        """Capacitance per unit length (F/m), sidewall + plate + fringe."""
        spacing = self.pitch - self.width
        plate = self.width / self.thickness  # dielectric height ~ thickness
        sidewall = self.thickness / spacing
        return 2.0 * EPS0 * self.k_ild * (sidewall + plate) + _C_FRINGE

    def rc_per_m2(self) -> float:
        """Distributed RC product per metre squared (s/m^2)."""
        return self.r_per_m * self.c_per_m

    def elmore_delay(self, length: float) -> float:
        """Unrepeated distributed-RC delay of a wire of ``length`` (s)."""
        return 0.38 * self.r_per_m * self.c_per_m * length * length


#: Effective copper resistivity per node (ohm*m): bulk copper plus a growing
#: size-effect penalty as line widths approach the electron mean free path.
_RHO_CU_EFF = {90: 2.53e-8, 65: 2.73e-8, 45: 3.00e-8, 32: 3.40e-8}

#: ILD dielectric constant trend (low-k introduction).
_K_ILD = {90: 3.1, 65: 2.9, 45: 2.7, 32: 2.5}


def semi_global_wire(node_nm: int) -> WireParams:
    """Intermediate-level copper wiring at 4F pitch."""
    return WireParams(
        name="semi-global",
        pitch=4.0 * node_nm * 1e-9,
        aspect_ratio=1.8,
        resistivity=_rho_cu(node_nm),
        k_ild=_k_ild(node_nm),
    )


def global_wire(node_nm: int) -> WireParams:
    """Top-level copper wiring at 8F pitch."""
    return WireParams(
        name="global",
        pitch=8.0 * node_nm * 1e-9,
        aspect_ratio=2.2,
        resistivity=_rho_cu(node_nm),
        k_ild=_k_ild(node_nm),
    )


def local_wire(node_nm: int, tungsten: bool = False) -> WireParams:
    """Array-local wiring at 2F pitch (bitlines, wordline straps).

    COMM-DRAM processes route bitlines in tungsten (paper Table 1), which
    carries roughly twice the effective resistivity penalty of copper on top
    of its higher bulk resistivity.
    """
    rho_scale = _rho_cu(node_nm) / _RHO_CU_BULK
    resistivity = (_RHO_W_BULK if tungsten else _RHO_CU_BULK) * rho_scale
    return WireParams(
        name="local-tungsten" if tungsten else "local",
        pitch=2.0 * node_nm * 1e-9,
        aspect_ratio=1.6,
        resistivity=resistivity,
        k_ild=_k_ild(node_nm),
    )


def _loglin(table: dict[int, float], node_nm: float) -> float:
    """Log-linear interpolation of a per-node table in feature size."""
    nodes = sorted(table)
    if node_nm in table:
        return table[node_nm]
    if node_nm > nodes[-1] or node_nm < nodes[0]:
        raise ValueError(
            f"node {node_nm} nm outside modeled range {nodes[0]}-{nodes[-1]} nm"
        )
    for lo, hi in zip(nodes, nodes[1:]):
        if lo <= node_nm <= hi:
            frac = (math.log(node_nm) - math.log(lo)) / (
                math.log(hi) - math.log(lo)
            )
            return math.exp(
                (1 - frac) * math.log(table[lo]) + frac * math.log(table[hi])
            )
    raise AssertionError("unreachable")


def _rho_cu(node_nm: float) -> float:
    # Table is keyed largest-feature-first conceptually; interpolation is
    # symmetric so ordering does not matter.
    return _loglin(_RHO_CU_EFF, node_nm)


def _k_ild(node_nm: float) -> float:
    return _loglin(_K_ILD, node_nm)
