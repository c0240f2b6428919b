#!/usr/bin/env python3
"""DRAM model validation against the 78 nm Micron DDR3-1066 x8 part.

Reproduces paper Table 2: solves the 1 Gb chip at the interpolated 78 nm
node, prints actual vs modeled timing/power with per-metric errors, and
compares each error against the error CACTI-D itself reported.  Also
shows the datasheet view: the analogue timing quantized to DDR3-1066
clocks.

Run:  python examples/ddr3_validation.py
"""

from repro.models.timing_dram import DDR3_1066, quantize
from repro.validation.compare import validate_ddr3


def main() -> None:
    validation = validate_ddr3()
    print(validation.report())

    solution = validation.solution
    print("\nChosen organization:")
    m = solution.metrics
    print(f"  ndwl={m.org.ndwl} ndbl={m.org.ndbl} nspd={m.org.nspd} "
          f"ndsam={m.org.ndsam}")
    print(f"  subarray {m.rows} x {m.cols}, {m.nact} activated per row, "
          f"{m.sensed_bits} sense amps per page")

    sheet = quantize(solution.timing, DDR3_1066)
    print(f"\nDatasheet view: {sheet.label()}  "
          f"(tRAS={sheet.tras}, tRC={sheet.trc} cycles)")
    print("The real Micron part is DDR3-1066 7-7-7.")


if __name__ == "__main__":
    main()
