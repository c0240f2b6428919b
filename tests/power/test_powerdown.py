"""Tests for the DRAM power-down mode extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.power.powerdown import (
    STATE_EXIT_LATENCY,
    STATE_POWER_FRACTION,
    PowerDownPolicy,
    PowerState,
    evaluate_policy,
    idle_intervals_from_rate,
)

ACTIVE_W = 0.091  # the Table 3 main-memory chip standby power


class TestStates:
    def test_power_ordering(self):
        assert (
            STATE_POWER_FRACTION[PowerState.SELF_REFRESH]
            < STATE_POWER_FRACTION[PowerState.PRECHARGE_POWERDOWN]
            < STATE_POWER_FRACTION[PowerState.ACTIVE_STANDBY]
        )

    def test_latency_ordering(self):
        """Deeper states cost more to wake from."""
        assert (
            STATE_EXIT_LATENCY[PowerState.ACTIVE_STANDBY]
            < STATE_EXIT_LATENCY[PowerState.PRECHARGE_POWERDOWN]
            < STATE_EXIT_LATENCY[PowerState.SELF_REFRESH]
        )


class TestPolicy:
    def test_state_selection(self):
        policy = PowerDownPolicy(powerdown_timeout=100e-9,
                                 self_refresh_timeout=100e-6)
        assert policy.state_for_idle(10e-9) is PowerState.ACTIVE_STANDBY
        assert (policy.state_for_idle(1e-6)
                is PowerState.PRECHARGE_POWERDOWN)
        assert policy.state_for_idle(1e-3) is PowerState.SELF_REFRESH

    def test_disabled_transitions(self):
        policy = PowerDownPolicy(powerdown_timeout=None,
                                 self_refresh_timeout=None)
        assert policy.state_for_idle(1.0) is PowerState.ACTIVE_STANDBY


class TestEvaluate:
    def test_busy_rank_saves_nothing(self):
        policy = PowerDownPolicy()
        outcome = evaluate_policy(policy, ACTIVE_W, [10e-9] * 100)
        assert outcome.average_standby_power == pytest.approx(ACTIVE_W)
        assert outcome.average_added_latency == 0.0

    def test_idle_rank_drops_to_self_refresh(self):
        policy = PowerDownPolicy()
        outcome = evaluate_policy(policy, ACTIVE_W, [1.0])
        assert outcome.average_standby_power < 0.15 * ACTIVE_W
        assert outcome.savings_vs_active(ACTIVE_W) > 0.85

    def test_added_latency_tracks_depth(self):
        policy = PowerDownPolicy()
        shallow = evaluate_policy(policy, ACTIVE_W, [1e-6] * 10)
        deep = evaluate_policy(policy, ACTIVE_W, [1e-2] * 10)
        assert deep.average_added_latency > shallow.average_added_latency

    def test_no_intervals(self):
        outcome = evaluate_policy(PowerDownPolicy(), ACTIVE_W, [])
        assert outcome.average_standby_power == ACTIVE_W

    @given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1,
                    max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_power_bounded_by_extremes(self, intervals):
        outcome = evaluate_policy(PowerDownPolicy(), ACTIVE_W, intervals)
        floor = STATE_POWER_FRACTION[PowerState.SELF_REFRESH] * ACTIVE_W
        assert floor - 1e-12 <= outcome.average_standby_power <= ACTIVE_W + 1e-12

    def test_deeper_policy_saves_more(self):
        intervals = [5e-6] * 100
        shallow = evaluate_policy(
            PowerDownPolicy(powerdown_timeout=100e-9,
                            self_refresh_timeout=None),
            ACTIVE_W, intervals,
        )
        aggressive = evaluate_policy(
            PowerDownPolicy(powerdown_timeout=100e-9,
                            self_refresh_timeout=1e-6),
            ACTIVE_W, intervals,
        )
        assert (aggressive.average_standby_power
                < shallow.average_standby_power)


class TestIdleDistribution:
    def test_mean_gap_matches_rate(self):
        gaps = idle_intervals_from_rate(1e6, duration=1.0)
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1e-6, rel=0.05)

    def test_zero_rate_is_fully_idle(self):
        assert idle_intervals_from_rate(0.0, 2.0) == [2.0]

    def test_higher_rate_shorter_gaps(self):
        busy = idle_intervals_from_rate(1e7, 1.0)
        quiet = idle_intervals_from_rate(1e3, 1.0)
        assert max(busy) < max(quiet)
