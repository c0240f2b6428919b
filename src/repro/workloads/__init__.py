"""Synthetic NPB-like workloads for the LLC study."""

from repro.workloads.npb import (
    BT_C,
    BY_NAME,
    CG_C,
    DEFAULT_INSTRUCTIONS,
    FT_B,
    IS_C,
    LU_C,
    MG_B,
    NPB_PROFILES,
    SP_C,
    UA_C,
)
from repro.workloads.micro import (
    MICRO_PROFILES,
    POINTER_CHASE,
    RESIDENT,
    STREAM,
    WRITE_SHARED,
)
from repro.workloads.synthetic import (
    LINE_BYTES,
    WorkloadProfile,
    event_batches,
    event_stream,
)

__all__ = [
    "BT_C",
    "BY_NAME",
    "CG_C",
    "DEFAULT_INSTRUCTIONS",
    "FT_B",
    "IS_C",
    "LINE_BYTES",
    "LU_C",
    "MG_B",
    "MICRO_PROFILES",
    "NPB_PROFILES",
    "POINTER_CHASE",
    "RESIDENT",
    "STREAM",
    "WRITE_SHARED",
    "SP_C",
    "UA_C",
    "WorkloadProfile",
    "event_batches",
    "event_stream",
]
