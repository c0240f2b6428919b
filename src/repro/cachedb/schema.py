"""Schema of the precomputed design-space database.

A cachedb is a solve store (:class:`~repro.store.SqliteStore`) holding
the data- and tag-array records of every cell of a (technology x node
x capacity x block x associativity) grid, under their ordinary
:func:`~repro.core.solvecache.solve_key` keys, plus one ``meta`` row
(:data:`META_KEY`) naming the grid axes, the optimization target and
the holes.  This module owns the grid: the :class:`GridSpec` axes, the
canonical cell labels (:func:`grid_key`), the :class:`MemorySpec` each
cell solves (:func:`grid_spec_for`) and the headline metrics a query
reports (:data:`DB_METRICS`).

The store carries no format or model stamp of its own: its records are
keyed under the solve-cache version, so records written by another
model are never served (see :mod:`repro.cachedb.reader`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

from repro.core.config import MemorySpec
from repro.core.results import Solution
from repro.core.solvecache import metrics_to_dict
from repro.tech.cells import CellTech
from repro.tech.devices import NODES_NM
from repro.tech.registry import registered_names

#: The ``meta`` row a finished build writes last; a store without it
#: is not a (complete) cachedb.
META_KEY = "cachedb"

#: Headline metrics a query reports (SI units), extracted from the
#: composed :class:`~repro.core.results.Solution`; a reader extracts
#: them once per grid cell.
DB_METRICS = {
    "access_time_s": lambda s: s.access_time,
    "random_cycle_s": lambda s: s.random_cycle_time,
    "interleave_cycle_s": lambda s: s.interleave_cycle_time,
    "e_read_j": lambda s: s.e_read,
    "e_write_j": lambda s: s.e_write,
    "p_leakage_w": lambda s: s.p_leakage,
    "p_refresh_w": lambda s: s.p_refresh,
    "area_m2": lambda s: s.area,
    "area_efficiency": lambda s: s.area_efficiency,
}


@dataclass(frozen=True)
class GridSpec:
    """The axes of one precompute grid.

    ``associativities`` may include ``0``, meaning a plain RAM (no tag
    array), mirroring the CLI's ``--assoc 0`` convention.  An empty
    ``technologies`` tuple means "every registered technology at build
    time".  Axes are deduplicated and sorted, so a grid has one
    spelling and a miss can name an axis's range.
    """

    capacities_bytes: tuple[int, ...]
    associativities: tuple[int, ...] = (8,)
    block_bytes: tuple[int, ...] = (64,)
    nodes_nm: tuple[float, ...] = (32.0,)
    technologies: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        def canon(values, kind, allow_zero=False):
            cleaned = tuple(sorted(set(values)))
            if not cleaned:
                raise ValueError(f"grid needs at least one {kind}")
            floor = 0 if allow_zero else 1
            if any(v < floor for v in cleaned):
                raise ValueError(f"negative {kind} in grid: {cleaned}")
            return cleaned

        object.__setattr__(
            self,
            "capacities_bytes",
            canon(self.capacities_bytes, "capacity"),
        )
        object.__setattr__(
            self,
            "associativities",
            canon(self.associativities, "associativity", allow_zero=True),
        )
        object.__setattr__(
            self, "block_bytes", canon(self.block_bytes, "block size")
        )
        object.__setattr__(
            self,
            "nodes_nm",
            tuple(sorted({float(n) for n in self.nodes_nm})),
        )
        lo, hi = min(NODES_NM), max(NODES_NM)
        bad = [n for n in self.nodes_nm if not lo <= n <= hi]
        if bad:
            raise ValueError(
                f"grid nodes {bad} outside modeled ITRS range {lo}-{hi} nm"
            )
        # Resolve technology names now: an unknown name should fail the
        # build before any solving starts, with the registered list.
        object.__setattr__(
            self,
            "technologies",
            tuple(CellTech(t).value for t in self.technologies)
            or registered_names(),
        )

    @property
    def axes(self) -> tuple:
        """The five axes, in :func:`grid_key` argument order."""
        return (self.technologies, self.nodes_nm, self.capacities_bytes,
                self.block_bytes, self.associativities)

    def __len__(self) -> int:
        return math.prod(map(len, self.axes))

    def points(self):
        """Yield ``(key, coords)`` for every grid cell, in key order."""
        for coords in itertools.product(*self.axes):
            yield grid_key(*coords), coords


def grid_key(
    tech: str, node_nm: float, capacity: int, block: int, assoc: int
) -> str:
    """Canonical cell label: names a grid cell in the holes map and in
    messages.  Nodes format through ``%g`` so ``32`` and ``32.0`` label
    one cell."""
    return f"{tech}/n{float(node_nm):g}/c{capacity}/b{block}/a{assoc}"


def grid_spec_for(
    tech: str, node_nm: float, capacity: int, block: int, assoc: int
) -> MemorySpec:
    """The :class:`MemorySpec` a grid cell solves.

    Grid points use the spec defaults everywhere off the grid axes
    (one bank, normal access mode, no ECC, no sleep transistors, the
    technology's default periphery), so a cachedb answer corresponds to
    a plain ``solve`` of the same coordinates.  Raises ``ValueError``
    for geometrically impossible cells (capacity not dividing into
    whole sets), which the builder records as holes.
    """
    return MemorySpec(
        capacity_bytes=capacity,
        block_bytes=block,
        associativity=assoc or None,
        node_nm=float(node_nm),
        cell_tech=CellTech(tech),
    )


def solution_to_record(solution: Solution) -> dict:
    """A solution's bit-exact record: its spec, its data and tag array
    metrics (shortest-repr floats, so equal records mean bit-identical
    numbers) and its headline :data:`DB_METRICS`.  A canonical form for
    digests and comparisons; the store itself keeps only the array
    records."""
    spec = solution.spec
    return {
        "spec": {
            **asdict(spec),
            "cell_tech": spec.cell_tech.value,
            "tag_cell_tech": (
                spec.tag_cell_tech.value
                if spec.tag_cell_tech is not None
                else None
            ),
            "access_mode": spec.access_mode.value,
        },
        "data": metrics_to_dict(solution.data),
        "tag": (
            metrics_to_dict(solution.tag)
            if solution.tag is not None
            else None
        ),
        "metrics": {
            name: extract(solution) for name, extract in DB_METRICS.items()
        },
    }
