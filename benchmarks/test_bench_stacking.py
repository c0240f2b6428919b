"""Extension bench: partitioning one L3 bank across stacked layers.

The paper stacks whole banks and cites 3DCacti / Puttaswamy-Loh for
array-level 3D partitioning; this bench quantifies that next step for the
192 MB COMM-DRAM L3 bank: footprint, access time, and read energy as the
bank folds onto 1/2/4/8 layers with sub-FO4 TSVs.
"""

from conftest import print_table

from repro.array.stacking import stacking_sweep
from repro.study.table3 import NODE_NM
from repro.core.cacti import solve
from repro.core.config import DENSITY_OPTIMIZED, MemorySpec
from repro.tech.cells import CellTech
from repro.tech.nodes import technology


def run_sweep():
    tech = technology(NODE_NM)
    solution = solve(
        MemorySpec(
            capacity_bytes=192 << 20, block_bytes=64, associativity=24,
            nbanks=8, node_nm=NODE_NM, cell_tech=CellTech.COMM_DRAM,
        ),
        DENSITY_OPTIMIZED,
    )
    return stacking_sweep(solution.data, tech.device("lstp"), max_layers=8)


def test_stacked_partitioning(benchmark):
    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        [str(s.layers),
         f"{s.footprint * 1e6:.2f}",
         f"{s.access_time * 1e9:.2f}",
         f"{s.speedup:.2f}x",
         f"{s.e_read_access * 1e9:.2f}"]
        for s in sweep
    ]
    print_table(
        "3D partitioning of the 192 MB COMM-DRAM L3 (per 8-bank structure)",
        ["layers", "footprint mm2", "access ns", "speedup", "E_rd nJ"],
        rows,
    )

    flat, deepest = sweep[0], sweep[-1]
    assert deepest.footprint == flat.footprint / deepest.layers
    assert deepest.access_time <= flat.access_time
    assert deepest.e_read_access <= flat.e_read_access
    # Diminishing returns: the local array path bounds the speedup.
    assert deepest.speedup < 2.5
