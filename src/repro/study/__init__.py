"""The stacked last-level-cache study (paper sections 3-4)."""

from repro.study.sensitivity import (
    SensitivityResult,
    SweepPoint,
    capacity_sweep,
    sweep,
)
from repro.study.runner import (
    DEFAULT_SCALE,
    RunResult,
    StudyResult,
    run_one,
    run_study,
)
from repro.study.table3 import (
    CONFIG_NAMES,
    CPU_HZ,
    NODE_NM,
    Table3Row,
    build_energy_model,
    build_system_config,
    paper_table3,
    solve_table3,
)

__all__ = [
    "CONFIG_NAMES",
    "CPU_HZ",
    "DEFAULT_SCALE",
    "NODE_NM",
    "RunResult",
    "SensitivityResult",
    "StudyResult",
    "SweepPoint",
    "Table3Row",
    "build_energy_model",
    "build_system_config",
    "paper_table3",
    "run_one",
    "run_study",
    "solve_table3",
]
