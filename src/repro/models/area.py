"""Area breakdown reporting.

Decomposes a solved design's area into cells, decode, sensing, and
routing so studies can see *where* the area efficiency of each cell
technology goes -- the quantity behind paper Table 3's area-efficiency
column and the Figure 1 bubble sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array import kernels
from repro.array.organization import ArrayMetrics
from repro.tech.nodes import Technology


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-component area of one bank design (m^2, whole structure)."""

    cells: float
    wordline_drivers_and_decode: float
    sense_amps: float
    htree_wiring: float
    overhead: float
    total: float

    def fractions(self) -> dict[str, float]:
        return {
            "cells": self.cells / self.total,
            "decode": self.wordline_drivers_and_decode / self.total,
            "sense": self.sense_amps / self.total,
            "routing": self.htree_wiring / self.total,
            "overhead": self.overhead / self.total,
        }

    def report(self) -> str:
        rows = [
            ("cells", self.cells),
            ("decode + wordline drivers", self.wordline_drivers_and_decode),
            ("sense amplifiers", self.sense_amps),
            ("H-tree routing", self.htree_wiring),
            ("control/overhead", self.overhead),
            ("total", self.total),
        ]
        return "\n".join(
            f"{name:<28}{area * 1e6:>10.3f} mm^2" for name, area in rows
        )


def area_breakdown(tech: Technology, metrics: ArrayMetrics) -> AreaBreakdown:
    """Recompute the component areas of a solved design point.

    Reads the winner's subarray terms off a one-row
    :func:`~repro.array.kernels.subarray_terms` table and its H-tree
    metal off :func:`~repro.array.kernels.htree_wiring_area`, the
    arithmetic the sweep itself composed the design's area from.
    """
    spec, org = metrics.spec, metrics.org
    row = kernels.subarray_terms(
        tech, spec.cell_tech, spec.periph_device_type,
        [metrics.rows], [metrics.cols],
    )[0]
    sub = dict(zip(kernels.SUBARRAY_TERMS, row.tolist()))
    cell_array_height = metrics.rows * tech.cell(
        spec.cell_tech, spec.periph_device_type
    ).height
    nsubs = org.ndwl * org.ndbl * spec.nbanks

    cells = nsubs * sub["cell_area"]
    decode = nsubs * sub["decoder_area"]
    # Sense strip: the height overhead times the array width.
    sense = nsubs * (sub["height"] - cell_array_height) * sub["width"]
    design, path = kernels.htree_route(
        tech, spec, metrics.bank_width, metrics.bank_height
    )
    wiring_in, wiring_out = kernels.htree_wiring_area(design, spec, path)
    routing = (wiring_in + wiring_out) * 0.5 * spec.nbanks
    accounted = cells + decode + sense + routing
    overhead = max(metrics.area - accounted, 0.0)
    return AreaBreakdown(
        cells=cells,
        wordline_drivers_and_decode=decode,
        sense_amps=sense,
        htree_wiring=routing,
        overhead=overhead,
        total=metrics.area,
    )
