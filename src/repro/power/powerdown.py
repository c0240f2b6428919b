"""DRAM power-down modes (the paper's concluding suggestion).

The paper closes by observing that standby power dominates main-memory
power in memory-rich systems and that "appropriate use of DRAM power-down
modes, combined with supporting operating system policies, may
significantly reduce main memory power."  This module implements that
future-work item: the standard DDR power states, their per-chip standby
powers and wake latencies, and a policy model that converts an idle-time
distribution into average standby power and average added latency.

States follow the DDR taxonomy:

* ACTIVE_STANDBY -- banks open or clock running, full standby power;
* PRECHARGE_POWERDOWN -- CKE low with banks precharged, fast exit;
* SELF_REFRESH -- clock stopped, on-chip refresh, slowest exit, lowest
  power.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PowerState(Enum):
    ACTIVE_STANDBY = "active-standby"
    PRECHARGE_POWERDOWN = "precharge-powerdown"
    SELF_REFRESH = "self-refresh"


#: Standby power relative to active standby, and exit latency, per state.
#: Fractions follow DDR3/DDR4 datasheet IDD ratios (IDD3N : IDD2P : IDD6).
STATE_POWER_FRACTION = {
    PowerState.ACTIVE_STANDBY: 1.00,
    PowerState.PRECHARGE_POWERDOWN: 0.35,
    PowerState.SELF_REFRESH: 0.12,
}

STATE_EXIT_LATENCY = {
    PowerState.ACTIVE_STANDBY: 0.0,
    PowerState.PRECHARGE_POWERDOWN: 10e-9,  # tXP-class
    PowerState.SELF_REFRESH: 500e-9,  # tXS-class
}


@dataclass(frozen=True)
class PowerDownPolicy:
    """Timeout-based power-state policy for one rank.

    After ``powerdown_timeout`` of idleness the rank enters precharge
    power-down; after ``self_refresh_timeout`` it drops to self-refresh.
    Disable a transition with ``None``.
    """

    powerdown_timeout: float | None = 100e-9
    self_refresh_timeout: float | None = 100e-6

    def state_for_idle(self, idle_time: float) -> PowerState:
        if (
            self.self_refresh_timeout is not None
            and idle_time >= self.self_refresh_timeout
        ):
            return PowerState.SELF_REFRESH
        if (
            self.powerdown_timeout is not None
            and idle_time >= self.powerdown_timeout
        ):
            return PowerState.PRECHARGE_POWERDOWN
        return PowerState.ACTIVE_STANDBY


@dataclass(frozen=True)
class PowerDownOutcome:
    """Average effect of a policy on one rank."""

    average_standby_power: float  #: W
    average_added_latency: float  #: s per request

    def savings_vs_active(self, active_standby_power: float) -> float:
        """Fractional standby-power saving vs always-active."""
        return 1.0 - self.average_standby_power / active_standby_power


def evaluate_policy(
    policy: PowerDownPolicy,
    active_standby_power: float,
    idle_intervals: list[float],
) -> PowerDownOutcome:
    """Average a policy over an observed idle-interval distribution.

    Each idle interval is spent in progressively deeper states as the
    timeouts expire; the next request pays the exit latency of whatever
    state the rank reached.
    """
    if not idle_intervals:
        return PowerDownOutcome(
            average_standby_power=active_standby_power,
            average_added_latency=0.0,
        )

    total_time = 0.0
    weighted_power = 0.0
    added_latency = 0.0

    for idle in idle_intervals:
        boundaries = [(PowerState.ACTIVE_STANDBY, 0.0)]
        if policy.powerdown_timeout is not None:
            boundaries.append(
                (PowerState.PRECHARGE_POWERDOWN, policy.powerdown_timeout)
            )
        if policy.self_refresh_timeout is not None:
            boundaries.append(
                (PowerState.SELF_REFRESH, policy.self_refresh_timeout)
            )
        final_state = policy.state_for_idle(idle)
        for (state, start), nxt in zip(
            boundaries, boundaries[1:] + [(None, idle)]
        ):
            span = max(0.0, min(idle, nxt[1]) - start)
            weighted_power += (
                span * STATE_POWER_FRACTION[state] * active_standby_power
            )
        total_time += idle
        added_latency += STATE_EXIT_LATENCY[final_state]

    return PowerDownOutcome(
        average_standby_power=weighted_power / total_time,
        average_added_latency=added_latency / len(idle_intervals),
    )


def idle_intervals_from_rate(
    request_rate: float, duration: float, num_intervals: int = 1000
) -> list[float]:
    """Exponential idle-gap distribution for a Poisson request stream.

    A convenience for studies that only know the average request rate:
    returns ``num_intervals`` quantile-sampled gaps of an exponential
    distribution with mean ``1/request_rate``.  The gaps represent the
    *distribution* (evaluate_policy weights states by time spent, so the
    sample size is immaterial); a non-positive rate returns one gap of
    the full ``duration``.
    """
    import math

    if request_rate <= 0:
        return [duration]
    mean_gap = 1.0 / request_rate
    return [
        -mean_gap * math.log(1.0 - (i + 0.5) / num_intervals)
        for i in range(num_intervals)
    ]
