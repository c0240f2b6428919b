"""User-facing input specifications for CACTI-D solves.

Mirrors the CACTI input model: a cache or plain memory is specified by
capacity, block size, associativity, bank count, technology node, cell
technology, and access mode; the optimizer is steered by the constraint
and weight structure of paper section 2.4 (max area constraint, max access
time constraint, normalized weighted objective, max repeater delay
constraint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.tech.cells import CellTech


class AccessMode(Enum):
    """How tags and data are accessed in a cache.

    NORMAL reads tags and data concurrently and late-selects the way;
    SEQUENTIAL reads data only after the tag lookup, saving energy by
    sensing a single way at the cost of serialized latency.
    """

    NORMAL = "normal"
    SEQUENTIAL = "sequential"


#: Physical address width assumed when sizing tag arrays.
PHYSICAL_ADDRESS_BITS = 40

#: Coherence/valid/dirty state bits stored alongside each tag.
TAG_STATUS_BITS = 2


@dataclass(frozen=True)
class MemorySpec:
    """A cache or plain memory to be solved.

    Set ``associativity`` to None for a plain RAM (no tag array); the
    ``block_bytes`` is then simply the access width.
    """

    capacity_bytes: int
    block_bytes: int = 64
    associativity: int | None = 8
    nbanks: int = 1
    node_nm: float = 32.0
    cell_tech: CellTech = CellTech.SRAM
    periph_device_type: str | None = None
    access_mode: AccessMode = AccessMode.NORMAL
    sleep_transistors: bool = False
    tag_cell_tech: CellTech | None = None  #: defaults to ``cell_tech``
    ecc: bool = False  #: SEC-DED on the data array (8 check bits / 64)

    def __post_init__(self) -> None:
        # Accept registry names for the technologies; unknown names raise
        # a ValueError listing the registered technologies.
        object.__setattr__(self, "cell_tech", CellTech(self.cell_tech))
        if self.tag_cell_tech is not None:
            object.__setattr__(
                self, "tag_cell_tech", CellTech(self.tag_cell_tech)
            )
        if self.capacity_bytes <= 0 or self.block_bytes <= 0:
            raise ValueError("capacity and block size must be positive")
        if self.nbanks < 1:
            raise ValueError(f"nbanks must be >= 1, got {self.nbanks}")
        if self.capacity_bytes % (self.nbanks * self.block_bytes):
            raise ValueError("banks x blocks must divide capacity")
        if self.associativity is not None and self.associativity < 1:
            raise ValueError("associativity must be >= 1 (or None for RAM)")
        ways = self.associativity or 1
        if self.capacity_bytes % (self.nbanks * self.block_bytes * ways):
            raise ValueError(
                "capacity must divide into whole sets per bank "
                f"({self.nbanks} banks x {ways} ways x "
                f"{self.block_bytes} B blocks)"
            )

    @property
    def is_cache(self) -> bool:
        return self.associativity is not None

    @property
    def periphery(self) -> str:
        """Peripheral device family: explicit override, else the cell
        technology's registered ``default_periphery`` trait."""
        if self.periph_device_type is not None:
            return self.periph_device_type
        return self.cell_tech.traits.default_periphery

    @property
    def tag_technology(self) -> CellTech:
        return self.tag_cell_tech if self.tag_cell_tech else self.cell_tech

    @property
    def sets(self) -> int:
        ways = self.associativity or 1
        return self.capacity_bytes // (self.block_bytes * ways)

    @property
    def tag_bits(self) -> int:
        """Tag width per block, including status bits."""
        index_bits = math.ceil(math.log2(max(self.sets, 2)))
        offset_bits = math.ceil(math.log2(self.block_bytes))
        return PHYSICAL_ADDRESS_BITS - index_bits - offset_bits + TAG_STATUS_BITS


@dataclass(frozen=True)
class OptimizationTarget:
    """Optimizer steering (paper section 2.4).

    Filtering proceeds in stages: candidates within ``max_area_fraction``
    of the best-area solution, then within ``max_acctime_fraction`` of the
    best access time among those, then ranked by the weighted sum of
    normalized dynamic energy, leakage power, random cycle time, and
    multisubbank interleave cycle time.
    """

    max_area_fraction: float = 0.5
    max_acctime_fraction: float = 0.5
    weight_dynamic: float = 1.0
    weight_leakage: float = 1.0
    weight_cycle: float = 1.0
    weight_interleave: float = 1.0
    max_repeater_delay_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.max_area_fraction < 0 or self.max_acctime_fraction < 0:
            raise ValueError("constraint fractions must be non-negative")
        weights = (
            self.weight_dynamic,
            self.weight_leakage,
            self.weight_cycle,
            self.weight_interleave,
        )
        if any(w < 0 for w in weights):
            raise ValueError("objective weights must be non-negative")
        if not any(weights):
            raise ValueError("at least one objective weight must be positive")


#: Optimization preset favouring density, used for commodity parts where
#: price per bit puts a premium on area efficiency (paper section 2.5).
DENSITY_OPTIMIZED = OptimizationTarget(
    max_area_fraction=0.02,
    max_acctime_fraction=0.5,
)

#: Optimization preset favouring energy and delay over capacity density
#: (the paper's "config ED" cache selections).
ENERGY_DELAY_OPTIMIZED = OptimizationTarget(
    max_area_fraction=0.7,
    max_acctime_fraction=0.1,
    weight_dynamic=2.0,
)
