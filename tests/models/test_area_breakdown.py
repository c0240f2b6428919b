"""Pin: ``area_breakdown`` equals the scalar breakdown, field for field.

The production breakdown reads a solved design's subarray terms and
H-tree wiring from the kernel side.  The scalar breakdown rebuilds the
winner one object at a time (``_Builder`` -> ``Subarray`` -> ``HTree``)
and decomposes its area.  Every golden-triad winner (data and tag) and
one winner per registered technology must give the same breakdown under
``==``: bit-identical floats, not approximations.
"""

import json
from pathlib import Path

import pytest

from repro.core.cacti import solve
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.models.area import area_breakdown
from repro.tech.nodes import technology
from repro.tech.registry import registered_names
from tests.reference_array import reference_area_breakdown

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "golden_triad.json")
    .read_text()
)

TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}

#: (id, spec, target): the golden-triad solves, then a 1 MB 8-way cache
#: of every registered technology.
CASES = [
    (r["id"], MemorySpec(**r["spec"]), TARGETS[r["target"]])
    for r in GOLDEN["solves"]
] + [
    (f"{name}-1m", MemorySpec(capacity_bytes=1 << 20, associativity=8,
                              cell_tech=name), OptimizationTarget())
    for name in registered_names()
]


@pytest.mark.parametrize(
    "spec, target", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_breakdown_equals_scalar_breakdown(spec, target):
    solution = solve(spec, target)
    tech = technology(spec.node_nm)
    for metrics in (solution.data, solution.tag):
        if metrics is None:
            continue
        assert area_breakdown(tech, metrics) == reference_area_breakdown(
            tech, metrics
        )
