"""Paper section 4.3: stacked-die thermal spread between L3 technologies.

The paper used HotSpot and found the maximum observed temperature
difference between the stacked SRAM, LP-DRAM, and COMM-DRAM L3 dies to be
under 1.5 K, because the worst case (SRAM with long-channel devices and
sleep transistors) dissipates only ~450 mW per bank.  This bench computes
per-bank power from the live Table 3 solves and applies the first-order
steady-state model.
"""

from conftest import print_table

from repro.power.thermal import ThermalEstimate, temperature_spread
from repro.study.table3 import solve_table3

BANK_AREA = 6.2e-6  # m^2, the per-bank stacking budget


def estimates():
    result = []
    for name in ("sram", "lp_dram_ed", "lp_dram_c", "cm_dram_ed",
                 "cm_dram_c"):
        row = solve_table3()[name]
        # Per-bank: leakage + refresh share plus a dynamic allowance of
        # one access per 16 CPU cycles (a busy LLC bank), which lands the
        # SRAM bank near the paper's ~450 mW worst case.
        static = (row.leakage_w + row.refresh_w) / row.nbanks
        dynamic = row.e_read_nj * 1e-9 * (2e9 / 16)
        result.append(
            ThermalEstimate(name, power=static + dynamic, area=BANK_AREA)
        )
    return result


def test_thermal_spread(benchmark):
    ests = benchmark.pedantic(estimates, rounds=1, iterations=1)
    rows = [
        [e.name, f"{e.power * 1e3:.0f}",
         f"{e.power_density / 1e4:.2f}", f"{e.temperature_rise:.2f}"]
        for e in ests
    ]
    print_table(
        "Section 4.3: stacked L3 thermal estimates",
        ["technology", "bank power (mW)", "W/cm^2", "dT (K)"],
        rows,
    )
    spread = temperature_spread(ests)
    print(f"max temperature spread: {spread:.2f} K (paper: < 1.5 K)")
    assert spread < 1.5

    sram = next(e for e in ests if e.name == "sram")
    print(f"SRAM bank power: {sram.power * 1e3:.0f} mW (paper: ~450 mW)")
    assert sram.power < 1.0
