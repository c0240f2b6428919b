#!/usr/bin/env python3
"""The stacked last-level-cache study (paper sections 3-4), end to end.

Runs a reduced version of the paper's architectural evaluation: four
representative NPB applications (one from each behaviour group) on the six
system configurations, with latencies and energies drawn from this
reproduction's own CACTI-D solves, then prints IPC, execution-cycle
breakdown, memory-hierarchy power, and normalized system energy-delay.

Run:  python examples/llc_study.py           (~2-4 minutes)
      python examples/llc_study.py --fast    (smaller runs, ~1 minute)
"""

import sys

from repro.study.runner import run_study
from repro.study.table3 import CONFIG_NAMES
from repro.workloads.npb import BT_C, CG_C, FT_B, UA_C


def main() -> None:
    fast = "--fast" in sys.argv
    instructions = 25_000 if fast else 80_000
    profiles = (FT_B, BT_C, UA_C, CG_C)

    print("Solving the hierarchy with CACTI-D and simulating "
          f"{len(profiles)} apps x {len(CONFIG_NAMES)} configurations ...")
    study = run_study(
        profiles=profiles,
        source="cacti",
        instructions_per_thread=instructions,
    )

    print("\nIPC (paper Figure 4a):")
    print(f"{'app':<8}" + "".join(f"{c:>12}" for c in CONFIG_NAMES))
    for app in study.app_names:
        cells = "".join(
            f"{study.get(app, c).ipc:>12.2f}" for c in CONFIG_NAMES
        )
        print(f"{app:<8}{cells}")

    print("\nExecution cycles normalized to nol3 (paper Figure 4b):")
    print(f"{'app':<8}" + "".join(f"{c:>12}" for c in CONFIG_NAMES))
    for app in study.app_names:
        cells = "".join(
            f"{study.normalized_cycles(app, c):>12.2f}"
            for c in CONFIG_NAMES
        )
        print(f"{app:<8}{cells}")

    print("\nCycle breakdown for ft.B on cm_dram_c:")
    stats = study.get("ft.B", "cm_dram_c").stats
    for name, frac in stats.breakdown.normalized().items():
        print(f"  {name:<12}{frac:>7.1%}")

    print("\nMemory-hierarchy power (W) and normalized EDP "
          "(paper Figure 5):")
    print(f"{'app':<8}{'config':<12}{'hier W':>8}{'EDP':>7}")
    for app in study.app_names:
        for config in CONFIG_NAMES:
            r = study.get(app, config)
            print(f"{app:<8}{config:<12}{r.power.total:>8.2f}"
                  f"{study.normalized_energy_delay(app, config):>7.2f}")

    for config in ("cm_dram_ed", "cm_dram_c"):
        print(
            f"\n{config}: mean execution-time reduction "
            f"{study.mean_execution_reduction(config):.0%}, "
            f"mean EDP improvement "
            f"{study.mean_energy_delay_improvement(config):.0%}"
        )
    print("(paper, all 8 apps: 39%/43% execution time, 33%/40% EDP)")


if __name__ == "__main__":
    main()
