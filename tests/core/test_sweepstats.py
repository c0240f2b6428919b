"""Unit tests for SweepStats itself: rates, serialization, absorption.

The optimizer integration tests (test_optimizer.py) cover counters
during real sweeps; these cover the dataclass's own arithmetic,
including the division edge cases and worker-payload absorption the
parallel engine relies on.
"""

import time

import pytest

from repro.core.optimizer import SweepStats


class TestRateEdgeCases:
    def test_zero_candidates_prefilter_rate_is_zero(self):
        assert SweepStats().prefilter_rate == 0.0

    def test_zero_lookups_hit_rates_are_zero(self):
        stats = SweepStats()
        assert stats.subarray_hit_rate == 0.0
        assert stats.htree_hit_rate == 0.0

    def test_rates_with_counts(self):
        stats = SweepStats(
            enumerated=100,
            prefiltered=75,
            subarray_hits=3,
            subarray_misses=1,
            htree_hits=1,
            htree_misses=3,
        )
        assert stats.prefilter_rate == 0.75
        assert stats.subarray_hit_rate == 0.75
        assert stats.htree_hit_rate == 0.25


class TestAsDictAndSummary:
    def test_as_dict_round_trips_every_counter(self):
        stats = SweepStats(enumerated=10, prefiltered=4, built=6, feasible=5)
        d = stats.as_dict()
        assert d["enumerated"] == 10
        assert d["prefiltered"] == 4
        assert d["built"] == 6
        assert d["feasible"] == 5
        assert d["prefilter_rate"] == 0.4
        assert d["phase_times"] == {}
        assert d["workers_absorbed"] == 0

    def test_empty_stats_summary_renders(self):
        text = SweepStats().summary()
        assert "candidates enumerated : 0" in text
        assert "(0.0%)" in text
        assert "workers" not in text

    def test_summary_shows_workers_and_phases_when_present(self):
        stats = SweepStats()
        stats.absorb_worker({"built": 1, "worker_wall_time_s": 0.5})
        stats.add_phase_time("build", 0.25)
        text = stats.summary()
        assert "workers" in text
        assert "phase build" in text

    def test_as_dict_phase_times_is_a_copy(self):
        stats = SweepStats()
        stats.add_phase_time("build", 1.0)
        stats.as_dict()["phase_times"]["build"] = 99.0
        assert stats.phase_times["build"] == 1.0


class TestPhaseTimers:
    def test_phase_times_accumulate(self):
        stats = SweepStats()
        stats.add_phase_time("build", 0.5)
        stats.add_phase_time("build", 0.25)
        stats.add_phase_time("rank", 0.1)
        assert stats.phase_times == {"build": 0.75, "rank": 0.1}

    def test_phase_context_manager_measures_wall_time(self):
        stats = SweepStats()
        with stats.phase("sleep"):
            time.sleep(0.01)
        assert stats.phase_times["sleep"] >= 0.01

    def test_phase_records_even_on_exception(self):
        stats = SweepStats()
        try:
            with stats.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in stats.phase_times


class TestAbsorbWorker:
    def test_counters_sum_across_payloads(self):
        stats = SweepStats()
        stats.absorb_worker(
            {"built": 10, "infeasible_at_build": 2, "subarray_hits": 5}
        )
        stats.absorb_worker(
            {"built": 7, "infeasible_at_build": 1, "subarray_misses": 3}
        )
        assert stats.built == 17
        assert stats.infeasible_at_build == 3
        assert stats.subarray_hits == 5
        assert stats.subarray_misses == 3
        assert stats.workers_absorbed == 2

    def test_worker_wall_time_lands_in_worker_time(self):
        stats = SweepStats()
        stats.absorb_worker({"worker_wall_time_s": 0.5})
        stats.absorb_worker({"wall_time_s": 0.25})  # full as_dict payload
        assert stats.worker_time_s == 0.75
        assert stats.wall_time_s == 0.0

    def test_absorbing_full_as_dict_payload(self):
        worker = SweepStats(
            enumerated=100,
            prefiltered=60,
            built=40,
            feasible=30,
            infeasible_at_build=10,
            solve_cache_hits=1,
            solve_cache_misses=2,
        )
        worker.add_phase_time("build", 0.5)
        parent = SweepStats(enumerated=5)
        parent.absorb_worker(worker.as_dict())
        assert parent.enumerated == 105
        assert parent.feasible == 30
        assert parent.solve_cache_hits == 1
        assert parent.solve_cache_misses == 2
        # Worker phase CPU is reported separately; it must never land
        # in the parent's wall-clock phase timers (concurrent workers
        # would sum to more CPU than elapsed wall time).
        assert parent.worker_phase_times["build"] == 0.5
        assert "build" not in parent.phase_times

    def test_worker_phase_times_stay_off_parent_wall_clock(self):
        """Regression: at jobs=N the parent's ``phase_times`` used to
        accumulate every worker's per-phase CPU, reporting e.g. a
        1.73 s build phase against 0.66 s of actual wall time."""
        parent = SweepStats()
        parent.add_phase_time("build", 0.66)  # parent-measured wall time
        for _ in range(4):  # four concurrent workers' CPU payloads
            parent.absorb_worker({"phase_times": {"build": 0.43}})
        assert parent.phase_times["build"] == 0.66
        assert parent.worker_phase_times["build"] == pytest.approx(1.72)
        payload = parent.as_dict()
        assert payload["phase_times"]["build"] == 0.66
        assert payload["worker_phase_times"]["build"] == pytest.approx(1.72)

    def test_nested_worker_phase_times_forward(self):
        """A mid-level worker forwards absorbed sub-worker phase CPU
        under ``worker_phase_times``; it stays worker-side upstream."""
        mid = SweepStats()
        mid.absorb_worker({"phase_times": {"build": 0.2}})
        top = SweepStats()
        top.absorb_worker(mid.as_dict())
        assert top.worker_phase_times["build"] == 0.2
        assert top.phase_times == {}

    def test_unknown_keys_ignored(self):
        stats = SweepStats()
        stats.absorb_worker({"pid": 1234, "prefilter_rate": 0.9})
        assert stats.as_dict()["enumerated"] == 0

    def test_nested_absorption_counts_forward(self):
        """A worker that itself absorbed sub-workers reports a payload
        whose counts survive one more absorption."""
        mid = SweepStats()
        mid.absorb_worker({"built": 3, "worker_wall_time_s": 0.1})
        top = SweepStats()
        top.absorb_worker(mid.as_dict())
        assert top.built == 3
        assert top.worker_time_s == 0.1
        assert top.workers_absorbed == 2  # mid itself + its sub-worker
