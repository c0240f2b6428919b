"""Ablation (paper sections 2.3.4/3.4): normal vs sequential cache access.

A *sequential* cache reads data only after the tag lookup, sensing a
single way instead of the whole set -- the paper cites this as the
energy-saving mode whose access pattern breaks set-per-page mapping
locality.  For a high-associativity DRAM LLC the activation energy scales
with the sensed page, so sequential access saves a large fraction of read
energy at the cost of serializing tag and data latency.

Also quantifies the refresh availability cost of the LP-DRAM L3's 0.12 ms
retention: what fraction of array time refresh steals.
"""

from conftest import print_table

from repro.core.cacti import solve
from repro.core.config import (
    DENSITY_OPTIMIZED,
    AccessMode,
    MemorySpec,
)
from repro.models.refresh import refresh_schedule
from repro.study.table3 import solve_table3
from repro.tech.cells import CellTech


def solve_both_modes():
    out = {}
    for mode in (AccessMode.NORMAL, AccessMode.SEQUENTIAL):
        out[mode] = solve(
            MemorySpec(
                capacity_bytes=192 << 20, block_bytes=64, associativity=24,
                nbanks=8, node_nm=32.0, cell_tech=CellTech.COMM_DRAM,
                access_mode=mode,
            ),
            DENSITY_OPTIMIZED,
        )
    return out


def test_access_modes(benchmark):
    solutions = benchmark.pedantic(solve_both_modes, rounds=1, iterations=1)
    rows = [
        [mode.value,
         f"{s.access_time * 1e9:.2f}",
         f"{s.e_read * 1e9:.3f}",
         f"{s.e_write * 1e9:.3f}"]
        for mode, s in solutions.items()
    ]
    print_table(
        "Normal vs sequential access (192 MB 24-way COMM-DRAM L3)",
        ["mode", "access ns", "E_read nJ", "E_write nJ"],
        rows,
    )
    normal = solutions[AccessMode.NORMAL]
    seq = solutions[AccessMode.SEQUENTIAL]
    saving = 1 - seq.e_read / normal.e_read
    penalty = seq.access_time / normal.access_time - 1
    print(f"sequential read-energy saving: {saving:.0%}, "
          f"latency penalty: {penalty:+.0%}")

    # Sensing one way instead of 24 must save a large energy fraction...
    assert saving > 0.3
    # ...while serializing tag+data costs latency.
    assert seq.access_time > normal.access_time


def test_refresh_availability(benchmark):
    """LP-DRAM's 0.12 ms retention: how much array time refresh steals."""
    def schedules():
        out = []
        for name in ("lp_dram_ed", "lp_dram_c", "cm_dram_ed", "cm_dram_c"):
            row = solve_table3()[name]
            cell = (CellTech.LP_DRAM if name.startswith("lp")
                    else CellTech.COMM_DRAM)
            retention = 0.12e-3 if cell is CellTech.LP_DRAM else 64e-3
            # Distributed refresh: every subarray refreshes its own rows
            # concurrently, so the availability tax per subarray is
            # (rows x row cycle) / retention.
            sched = refresh_schedule(
                total_rows=row.rows_per_subarray,
                rows_per_operation=1,
                retention_time=retention,
                row_cycle_time=row.random_cycles * 0.5e-9,
                nbanks=1,
            )
            out.append((name, retention, sched))
        return out

    results = benchmark.pedantic(schedules, rounds=1, iterations=1)
    rows = [
        [name, f"{ret * 1e3:g}", f"{s.refresh_interval * 1e9:.0f}",
         f"{s.bandwidth_overhead:.2%}"]
        for name, ret, s in results
    ]
    print_table(
        "Refresh availability cost of the DRAM L3s",
        ["config", "retention ms", "tREFI ns", "bandwidth stolen"],
        rows,
    )
    by_name = {name: s for name, _, s in results}
    # LP-DRAM refreshes ~500x more often; its bandwidth tax must dominate
    # COMM-DRAM's, yet stay manageable (the paper deploys LP-DRAM LLCs).
    assert (by_name["lp_dram_ed"].bandwidth_overhead
            > 20 * by_name["cm_dram_ed"].bandwidth_overhead)
    # ... yet the tax stays manageable, which is why the paper can deploy
    # LP-DRAM LLCs at all.
    assert by_name["lp_dram_ed"].bandwidth_overhead < 0.10
