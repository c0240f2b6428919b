"""Method of logical effort, used (following Amrutur & Horowitz) to size
decoder chains and drivers.

CACTI-D adopted logical-effort sizing from the Amrutur/Horowitz fast
low-power decoder work: given a path's total effort (logical effort x
branching x electrical effort), the near-optimal number of stages is
``log4(F)`` and each stage bears effort ``F ** (1/N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Target effort per stage; 4 minimizes delay for typical parasitics.
STAGE_EFFORT = 4.0

#: Logical efforts of common gates with a 2:1 P:N ratio.
LE_INVERTER = 1.0


def le_nand(num_inputs: int) -> float:
    """Logical effort of an n-input NAND gate."""
    return (num_inputs + 2.0) / 3.0


def optimal_stages(path_effort: float) -> int:
    """Number of stages minimizing delay for a given path effort."""
    if path_effort <= 1.0:
        return 1
    return max(1, round(math.log(path_effort) / math.log(STAGE_EFFORT)))


@dataclass(frozen=True)
class SizedPath:
    """Result of sizing a logic path with the method of logical effort."""

    num_stages: int
    stage_effort: float
    input_caps: tuple[float, ...]  #: input capacitance of each stage (F)

    @property
    def path_effort(self) -> float:
        return self.stage_effort**self.num_stages


def size_path(
    c_load: float,
    c_in: float,
    logical_efforts: tuple[float, ...],
    branching: tuple[float, ...] = (),
) -> SizedPath:
    """Size a path of the given gate types from ``c_in`` to ``c_load``.

    ``logical_efforts`` lists the fixed gates the path must contain (e.g. a
    predecode NAND and a row-gating NAND); inverters are appended to bring
    the stage count to the logical-effort optimum.  ``branching`` lists
    per-stage branch factors (default 1).  Returns per-stage input caps so
    callers can derive widths, areas, and energies.
    """
    if c_in <= 0.0 or c_load <= 0.0:
        raise ValueError("capacitances must be positive")
    g_path = math.prod(logical_efforts) if logical_efforts else 1.0
    b_path = math.prod(branching) if branching else 1.0
    h_path = c_load / c_in
    f_path = max(g_path * b_path * h_path, 1.0)

    n = max(optimal_stages(f_path), len(logical_efforts))
    stage_effort = f_path ** (1.0 / n)

    # Walk backwards from the load, assigning each stage its input cap:
    # c_in[i] = g[i] * b[i] * c_out[i] / stage_effort.
    efforts = list(logical_efforts) + [LE_INVERTER] * (n - len(logical_efforts))
    branches = list(branching) + [1.0] * (n - len(branching))
    caps = [0.0] * n
    c_out = c_load
    for i in range(n - 1, -1, -1):
        caps[i] = efforts[i] * branches[i] * c_out / stage_effort
        c_out = caps[i]
    return SizedPath(num_stages=n, stage_effort=stage_effort,
                     input_caps=tuple(caps))
