#!/usr/bin/env python3
"""Design-space exploration: the optimizer's solution cloud.

Reproduces the paper's section 2.4 workflow on an 8 MB L3 bank: enumerate
every feasible organization, apply the staged max-area / max-access-time
filters, rank by the normalized weighted objective, and print the
area/delay/energy/leakage tradeoffs of the frontier -- including how the
``max_repeater_delay_constraint`` trades delay for interconnect energy.

Run:  python examples/design_space_sweep.py
"""

from repro import CellTech, MemorySpec, OptimizationTarget
from repro.core.cacti import data_array_spec
from repro.core.optimizer import feasible_designs, filter_constraints, rank
from repro.models.delay import delay_breakdown
from repro.models.energy import energy_breakdown
from repro.tech.nodes import technology


def main() -> None:
    spec = MemorySpec(
        capacity_bytes=8 << 20,
        block_bytes=64,
        associativity=8,
        node_nm=32.0,
        cell_tech=CellTech.LP_DRAM,
    )
    tech = technology(spec.node_nm)
    array_spec = data_array_spec(spec)

    designs = feasible_designs(tech, array_spec)
    print(f"feasible organizations: {len(designs)}")
    areas = sorted(d.area * 1e6 for d in designs)
    times = sorted(d.t_access * 1e9 for d in designs)
    print(f"area range  : {areas[0]:.2f} .. {areas[-1]:.2f} mm^2")
    print(f"access range: {times[0]:.2f} .. {times[-1]:.2f} ns")

    print("\nStaged filtering and ranking:")
    header = (f"{'constraints':<28}{'ndwl':>5}{'ndbl':>5}{'nspd':>6}"
              f"{'acc ns':>8}{'area mm2':>9}{'E_rd nJ':>8}{'leak W':>8}")
    print(header)
    for area_frac, time_frac in ((0.05, 0.05), (0.1, 0.3), (0.5, 0.5),
                                 (1.0, 1.0)):
        target = OptimizationTarget(
            max_area_fraction=area_frac, max_acctime_fraction=time_frac
        )
        best = rank(filter_constraints(designs, target), target)[0]
        label = f"area<={area_frac:.0%} time<={time_frac:.0%}"
        print(
            f"{label:<28}{best.org.ndwl:>5}{best.org.ndbl:>5}"
            f"{best.org.nspd:>6.2f}{best.t_access * 1e9:>8.2f}"
            f"{best.area * 1e6:>9.2f}{best.e_read_access * 1e9:>8.3f}"
            f"{best.p_leakage:>8.3f}"
        )

    target = OptimizationTarget(max_area_fraction=0.1,
                                max_acctime_fraction=0.3)
    best = rank(filter_constraints(designs, target), target)[0]
    print("\nChosen design, delay breakdown:")
    print(delay_breakdown(best).report())
    print("\nChosen design, read-energy breakdown:")
    print(energy_breakdown(best).report())


if __name__ == "__main__":
    main()
