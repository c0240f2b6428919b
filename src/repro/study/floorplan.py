"""Bottom-die floorplan: deriving the 6.2 mm^2 per-bank budget (paper §3.1).

The paper computes the area of the bottom (core) die by scaling the
90 nm Niagara core components to 32 nm and using CACTI-D for the L1 and
L2 caches, then fixes the area available per stacked LLC bank to 1/8th of
the bottom die -- 6.2 mm^2.  This module reproduces that derivation from
this repository's own cache solves, so the budget is a computed quantity
rather than a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Published 90 nm Niagara core area (logic + register files + local
#: structures, excluding L1/L2 which CACTI-D resolves) (m^2).
NIAGARA_CORE_AREA_90NM = 16.4e-6

#: Area of one 32 nm 4-way SIMD FPU (m^2); each scaled core carries one,
#: versus the original chip's single shared FPU.
FPU_AREA_32NM = 1.6e-6

#: Crossbar and miscellaneous glue on the bottom die, per core share (m^2).
GLUE_AREA_PER_CORE_32NM = 0.35e-6


@dataclass(frozen=True)
class Floorplan:
    """Bottom-die area accounting for the LLC study."""

    num_cores: int
    core_logic_area: float  #: scaled core logic, per core (m^2)
    fpu_area: float  #: per core
    l1_area: float  #: both I and D, per core
    l2_area: float  #: per core
    glue_area: float  #: per core

    @property
    def per_core(self) -> float:
        return (self.core_logic_area + self.fpu_area + self.l1_area
                + self.l2_area + self.glue_area)

    @property
    def bottom_die_area(self) -> float:
        return self.num_cores * self.per_core

    @property
    def llc_bank_budget(self) -> float:
        """Area available per stacked LLC bank: 1/8th of the bottom die."""
        return self.bottom_die_area / 8.0

    def report(self) -> str:
        rows = [
            ("core logic (scaled Niagara)", self.core_logic_area),
            ("4-way SIMD FPU", self.fpu_area),
            ("L1 I+D (CACTI-D)", self.l1_area),
            ("L2 (CACTI-D)", self.l2_area),
            ("crossbar/glue share", self.glue_area),
            ("per core", self.per_core),
        ]
        lines = [
            f"{name:<30}{area * 1e6:>8.2f} mm^2" for name, area in rows
        ]
        lines.append(
            f"{'bottom die (' + str(self.num_cores) + ' cores)':<30}"
            f"{self.bottom_die_area * 1e6:>8.2f} mm^2"
        )
        lines.append(
            f"{'LLC bank budget (1/8th)':<30}"
            f"{self.llc_bank_budget * 1e6:>8.2f} mm^2"
        )
        return "\n".join(lines)


@lru_cache(maxsize=None)
def derive_floorplan(node_nm: float = 32.0, num_cores: int = 8) -> Floorplan:
    """Reproduce the paper's bottom-die derivation at ``node_nm``."""
    from repro.study.table3 import solve_table3

    scale = (node_nm / 90.0) ** 2
    rows = solve_table3()
    l1 = rows["L1"].area_mm2 * 1e-6
    l2 = rows["L2"].area_mm2 * 1e-6
    return Floorplan(
        num_cores=num_cores,
        core_logic_area=NIAGARA_CORE_AREA_90NM * scale,
        fpu_area=FPU_AREA_32NM,
        l1_area=2.0 * l1,  # instruction + data
        l2_area=l2,
        glue_area=GLUE_AREA_PER_CORE_32NM,
    )


#: The paper's quoted per-bank budget (m^2), for comparison.
PAPER_BANK_BUDGET = 6.2e-6
