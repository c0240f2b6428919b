"""Capture the golden-equivalence baselines.

``triad`` writes ``tests/data/golden_triad.json``: bit-exact solved
numbers for representative SRAM, LP-DRAM, and COMM-DRAM solves
(including the paper's Table-3 rows and the DDR3 validation part),
recorded *before* the technology-registry refactor.  The regression
suite in ``tests/core/test_golden_triad.py`` re-solves the same inputs
and asserts field-for-field float equality against this file, at
several job counts -- proving a refactor changed no numbers.

``study`` writes ``tests/data/golden_study.json``: a reduced LLC-study
matrix (``STUDY_MATRIX``) with every cell's ``SimStats`` field for
field and the Figure 4(b)/5(a)/5(b) numbers derived from them,
recorded before the simulator hot-path rewrite.
``tests/study/test_golden_study.py`` re-runs the matrix and asserts
equality -- proving a simulator refactor changed no numbers.
It also writes ``tests/data/golden_study_wide.json``: every NPB app x
every study configuration (``STUDY_WIDE_MATRIX``) on both energy
sources (``paper`` and ``cacti``) at a short instruction count, so the
configurations, apps and source the reduced matrix leaves out are
pinned too.  Its ``cacti`` cells carry the solver-derived Table 3
latencies of every L3 configuration.

JSON round-trips are exact: ``json`` emits the shortest repr of each
float, which parses back to the same IEEE-754 value.

Usage (no argument captures both)::

    PYTHONPATH=src python tools/capture_golden.py [triad] [study]
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cacti import solve  # noqa: E402
from repro.core.config import (  # noqa: E402
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.solvecache import metrics_to_dict  # noqa: E402
from repro.study.runner import run_study  # noqa: E402
from repro.study.table3 import CONFIG_NAMES, solve_table3  # noqa: E402
from repro.tech.cells import CellTech  # noqa: E402
from repro.validation.compare import validate_ddr3  # noqa: E402
from repro.workloads.npb import BY_NAME, NPB_PROFILES  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data"

#: The recorded solve grid: (id, MemorySpec kwargs, target name).
#: ``cell_tech`` / ``tag_cell_tech`` are registry names, resolved at
#: solve time, so the capture script and the regression test build the
#: exact same specs whatever the CellTech representation is.
SOLVE_GRID = [
    (
        "sram-2m",
        dict(capacity_bytes=2 << 20, associativity=8, cell_tech="sram"),
        "balanced",
    ),
    (
        "lp-dram-4m",
        dict(capacity_bytes=4 << 20, associativity=8, cell_tech="lp-dram"),
        "balanced",
    ),
    (
        "comm-dram-16m",
        dict(
            capacity_bytes=16 << 20,
            associativity=16,
            nbanks=4,
            cell_tech="comm-dram",
        ),
        "density",
    ),
    (
        "mixed-comm-sram-tags",
        dict(
            capacity_bytes=8 << 20,
            associativity=8,
            cell_tech="comm-dram",
            tag_cell_tech="sram",
        ),
        "balanced",
    ),
    (
        "sram-78nm",
        dict(capacity_bytes=1 << 20, associativity=8, node_nm=78.0,
             cell_tech="sram"),
        "energy-delay",
    ),
]

#: The reduced study matrix: one app per behaviour class of
#: ``repro.workloads.npb`` (L3-capacity fit, streaming, write-heavy with
#: skew, L3-insensitive with locks) on no L3, a single-subbank SRAM L3
#: and the multisubbank COMM-DRAM L3.
STUDY_MATRIX = {
    "apps": ["ft.B", "cg.C", "is.C", "ua.C"],
    "configs": ["nol3", "sram", "cm_dram_c"],
    "source": "cacti",
    "scale": 16,
    "instructions_per_thread": 8000,
    "seeds": [1, 2],
}

#: The widened study matrix: all eight apps x all six configurations,
#: once per energy source, at a short instruction count and one seed.
STUDY_WIDE_MATRIX = {
    "apps": [p.name for p in NPB_PROFILES],
    "configs": list(CONFIG_NAMES),
    "sources": ["paper", "cacti"],
    "scale": 16,
    "instructions_per_thread": 2000,
    "seed": 1,
}

TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def build_spec(kwargs: dict) -> MemorySpec:
    kwargs = dict(kwargs)
    kwargs["cell_tech"] = CellTech(kwargs["cell_tech"])
    if "tag_cell_tech" in kwargs:
        kwargs["tag_cell_tech"] = CellTech(kwargs["tag_cell_tech"])
    return MemorySpec(**kwargs)


def capture_solves() -> list[dict]:
    records = []
    for solve_id, spec_kwargs, target_name in SOLVE_GRID:
        solution = solve(build_spec(spec_kwargs), TARGETS[target_name])
        records.append({
            "id": solve_id,
            "spec": spec_kwargs,
            "target": target_name,
            "data": metrics_to_dict(solution.data),
            "tag": (
                metrics_to_dict(solution.tag)
                if solution.tag is not None else None
            ),
        })
    return records


def capture_table3() -> dict:
    return {
        name: dataclasses.asdict(row)
        for name, row in solve_table3().items()
    }


def capture_ddr3() -> dict:
    v = validate_ddr3()
    timing = dataclasses.asdict(v.solution.timing)
    energies = dataclasses.asdict(v.solution.energies)
    return {
        "errors": dict(v.errors),
        "timing": timing,
        "energies": energies,
        "area_efficiency": v.solution.area_efficiency,
    }


def study_cells(matrix: dict, seed: int, source: str | None = None
                ) -> list[dict]:
    """One seed of the study matrix, one record per (app, config) cell
    in matrix order: the cell's ``SimStats`` and the figure numbers
    derived from them.  ``source`` overrides the matrix's energy
    source."""
    result = run_study(
        profiles=tuple(BY_NAME[a] for a in matrix["apps"]),
        configs=tuple(matrix["configs"]),
        source=source or matrix["source"],
        scale=matrix["scale"],
        instructions_per_thread=matrix["instructions_per_thread"],
        seed=seed,
    )
    cells = []
    for app in matrix["apps"]:
        for config in matrix["configs"]:
            run = result.get(app, config)
            cells.append({
                "app": app,
                "config": config,
                "stats": dataclasses.asdict(run.stats),
                "normalized_cycles": result.normalized_cycles(app, config),
                "hierarchy_power": run.power.as_dict(),
                "hierarchy_power_total": run.power.total,
                "energy_delay": run.system.energy_delay,
                "normalized_energy_delay":
                    result.normalized_energy_delay(app, config),
            })
    return cells


def capture_study() -> dict:
    return {
        "matrix": STUDY_MATRIX,
        "runs": [
            {"seed": seed, "cells": study_cells(STUDY_MATRIX, seed)}
            for seed in STUDY_MATRIX["seeds"]
        ],
    }


def capture_study_wide() -> dict:
    matrix = STUDY_WIDE_MATRIX
    return {
        "matrix": matrix,
        "runs": [
            {
                "source": source,
                "seed": matrix["seed"],
                "cells": study_cells(matrix, matrix["seed"], source),
            }
            for source in matrix["sources"]
        ],
    }


def write(name: str, payload: dict) -> None:
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {path}")


def main(which: list[str]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    unknown = set(which) - {"triad", "study"}
    if unknown:
        raise SystemExit(f"unknown golden(s): {sorted(unknown)}")
    if not which or "triad" in which:
        write("golden_triad.json", {
            "solves": capture_solves(),
            "table3": capture_table3(),
            "ddr3": capture_ddr3(),
        })
    if not which or "study" in which:
        write("golden_study.json", capture_study())
        write("golden_study_wide.json", capture_study_wide())


if __name__ == "__main__":
    main(sys.argv[1:])
