"""Refresh modeling (paper section 2.3.3).

DRAM cells leak charge and must be refreshed every retention period.  The
power cost is evaluated inside the array model; this module adds the
scheduling-side quantities a system study needs: how often refresh
commands must issue, what fraction of the array's time they steal
(bandwidth overhead), and the refresh-interval scaling with capacity.

The paper's Table 1 contrast is stark -- LP-DRAM retains for 0.12 ms while
COMM-DRAM retains for 64 ms -- so LP-DRAM refreshes ~500x more often,
which shows up both in refresh power (Table 3) and in availability.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RefreshSchedule:
    """Refresh requirements of one DRAM structure."""

    rows_to_refresh: int  #: independent row-refresh operations per period
    retention_time: float  #: s
    row_cycle_time: float  #: time one refresh op occupies a bank (s)
    nbanks: int  #: banks refreshing in parallel

    @property
    def refresh_interval(self) -> float:
        """Time between successive refresh operations (tREFI analogue, s)."""
        ops_per_bank = self.rows_to_refresh / self.nbanks
        return self.retention_time / ops_per_bank

    @property
    def bandwidth_overhead(self) -> float:
        """Fraction of array time consumed by refresh."""
        return min(1.0, self.row_cycle_time / self.refresh_interval)

    @property
    def refresh_rate(self) -> float:
        """Refresh operations per second, whole structure."""
        return self.rows_to_refresh / self.retention_time


def refresh_schedule(
    total_rows: int,
    rows_per_operation: int,
    retention_time: float,
    row_cycle_time: float,
    nbanks: int,
) -> RefreshSchedule:
    """Build the refresh schedule for an array.

    ``rows_per_operation`` counts physical subarray rows refreshed by one
    operation (the activation width, in subarrays).
    """
    ops = max(1, total_rows // max(rows_per_operation, 1))
    return RefreshSchedule(
        rows_to_refresh=ops,
        retention_time=retention_time,
        row_cycle_time=row_cycle_time,
        nbanks=nbanks,
    )

