"""Array organization: specs, the array-model kernels, banks, main-memory chips."""

from repro.array.mainmem import (
    MainMemoryEnergies,
    MainMemorySpec,
    MainMemoryTiming,
    derive_energies,
    derive_timing,
)
from repro.array.organization import (
    ArrayMetrics,
    ArraySpec,
    EvalCache,
    InfeasibleOrganization,
    OrgGeometry,
    OrgParams,
)
from repro.array.stacking import StackedBank, stacking_sweep

__all__ = [
    "ArrayMetrics",
    "ArraySpec",
    "EvalCache",
    "InfeasibleOrganization",
    "OrgGeometry",
    "MainMemoryEnergies",
    "MainMemorySpec",
    "MainMemoryTiming",
    "OrgParams",
    "StackedBank",
    "derive_energies",
    "derive_timing",
    "stacking_sweep",
]
