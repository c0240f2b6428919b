"""Per-access energy breakdown reporting."""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.organization import ArrayMetrics


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component energies of one read access (J)."""

    activate: float  #: decode + wordline + sensing (row open)
    read_column: float  #: column mux + data H-tree out
    precharge: float  #: bitline restore
    total_read: float
    total_write: float

    def report(self) -> str:
        rows = [
            ("row activate + sense", self.activate),
            ("column path + data out", self.read_column),
            ("precharge/restore", self.precharge),
            ("total read", self.total_read),
            ("total write", self.total_write),
        ]
        return "\n".join(
            f"{name:<28}{e * 1e12:>9.2f} pJ" for name, e in rows
        )


def energy_breakdown(metrics: ArrayMetrics) -> EnergyBreakdown:
    return EnergyBreakdown(
        activate=metrics.e_activate,
        read_column=metrics.e_read_column,
        precharge=metrics.e_precharge,
        total_read=metrics.e_read_access,
        total_write=metrics.e_write_access,
    )
