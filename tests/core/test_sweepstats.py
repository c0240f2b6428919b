"""Unit tests for the SweepStats view: rates, serialization, absorption.

SweepStats reads its counters from an Obs metrics registry.  The
optimizer integration tests (test_optimizer.py) cover counters during
real sweeps; these cover the view's own arithmetic, including the
division edge cases, and the worker-payload absorption
(``Obs.absorb_worker``) the parallel engine relies on.
"""

import time

import pytest

from repro.core.optimizer import SWEEP_METRICS, SweepStats
from repro.obs import Obs, phase


def sink(**fields) -> Obs:
    """A metrics-only Obs holding the given SweepStats field values."""
    obs = Obs(trace=False)
    for field, value in fields.items():
        obs.inc(SWEEP_METRICS[field], value)
    return obs


def worker_payload(phases=None, **fields) -> dict:
    """What a worker task ships home after counting ``fields`` and
    timing ``phases`` (name -> seconds)."""
    obs = sink(**fields)
    for name, seconds in (phases or {}).items():
        obs.observe(f"phase.{name}_s", seconds)
    return obs.export_payload()


def view(obs: Obs) -> SweepStats:
    return SweepStats(obs.metrics)


class TestRateEdgeCases:
    def test_zero_candidates_prefilter_rate_is_zero(self):
        assert view(Obs(trace=False)).prefilter_rate == 0.0

    def test_zero_lookups_hit_rates_are_zero(self):
        stats = view(Obs(trace=False))
        assert stats.subarray_hit_rate == 0.0

    def test_rates_with_counts(self):
        stats = view(sink(
            enumerated=100,
            prefiltered=75,
            subarray_hits=3,
            subarray_misses=1,
        ))
        assert stats.prefilter_rate == 0.75
        assert stats.subarray_hit_rate == 0.75


class TestView:
    def test_fields_read_their_registry_names(self):
        obs = sink(**{field: i + 1 for i, field in enumerate(SWEEP_METRICS)})
        stats = view(obs)
        for i, field in enumerate(SWEEP_METRICS):
            assert getattr(stats, field) == i + 1

    def test_view_is_read_only(self):
        stats = view(sink(enumerated=3))
        with pytest.raises(AttributeError):
            stats.enumerated = 4
        assert stats.enumerated == 3

    def test_reads_create_no_instruments(self):
        obs = Obs(trace=False)
        stats = view(obs)
        stats.as_dict()
        stats.summary()
        assert obs.metrics.snapshot() == Obs(trace=False).metrics.snapshot()

    def test_unknown_field_raises(self):
        with pytest.raises(AttributeError):
            view(Obs(trace=False)).no_such_counter

    def test_missing_clocks_read_as_float_zero(self):
        stats = view(Obs(trace=False))
        assert stats.wall_time_s == 0.0
        assert isinstance(stats.wall_time_s, float)
        assert isinstance(stats.enumerated, int)


class TestAsDictAndSummary:
    def test_as_dict_round_trips_every_counter(self):
        stats = view(sink(enumerated=10, prefiltered=4, built=6, feasible=5))
        d = stats.as_dict()
        assert d["enumerated"] == 10
        assert d["prefiltered"] == 4
        assert d["built"] == 6
        assert d["feasible"] == 5
        assert d["prefilter_rate"] == 0.4
        assert d["phase_times"] == {}
        assert d["workers_absorbed"] == 0

    def test_empty_stats_summary_renders(self):
        text = view(Obs(trace=False)).summary()
        assert "candidates enumerated : 0" in text
        assert "(0.0%)" in text
        assert "workers" not in text

    def test_summary_shows_workers_and_phases_when_present(self):
        obs = Obs(trace=False)
        obs.absorb_worker(worker_payload(built=1, wall_time_s=0.5))
        obs.observe("phase.build_s", 0.25)
        text = view(obs).summary()
        assert "workers" in text
        assert "phase build" in text

    def test_as_dict_phase_times_is_a_copy(self):
        obs = Obs(trace=False)
        obs.observe("phase.build_s", 1.0)
        stats = view(obs)
        stats.as_dict()["phase_times"]["build"] = 99.0
        assert stats.phase_times["build"] == 1.0


class TestPhaseTimers:
    def test_phase_times_accumulate(self):
        obs = Obs(trace=False)
        obs.observe("phase.build_s", 0.5)
        obs.observe("phase.build_s", 0.25)
        obs.observe("phase.rank_s", 0.1)
        assert view(obs).phase_times == {"build": 0.75, "rank": 0.1}

    def test_phase_context_manager_measures_wall_time(self):
        obs = Obs(trace=False)
        with phase("sleep", obs):
            time.sleep(0.01)
        assert view(obs).phase_times["sleep"] >= 0.01

    def test_phase_records_even_on_exception(self):
        obs = Obs(trace=False)
        try:
            with phase("boom", obs):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in view(obs).phase_times

    def test_phases_print_in_pipeline_order(self):
        """Absorbed snapshots arrive name-sorted (build before
        prefilter); the view reports phases in the order a solve runs
        them."""
        obs = Obs(trace=False)
        obs.observe("phase.batch_s", 0.4)
        obs.observe("phase.prefilter_s", 0.1)
        obs.absorb_worker(worker_payload(
            phases={"prefilter": 0.1, "build": 0.2, "rank": 0.3}
        ))
        stats = view(obs)
        assert list(stats.phase_times) == ["prefilter", "batch"]
        assert list(stats.worker_phase_times) == [
            "prefilter", "build", "rank"
        ]


class TestAbsorbWorker:
    def test_counters_sum_across_payloads(self):
        obs = Obs(trace=False)
        obs.absorb_worker(
            worker_payload(built=10, infeasible_at_build=2, subarray_hits=5)
        )
        obs.absorb_worker(
            worker_payload(built=7, infeasible_at_build=1, subarray_misses=3)
        )
        stats = view(obs)
        assert stats.built == 17
        assert stats.infeasible_at_build == 3
        assert stats.subarray_hits == 5
        assert stats.subarray_misses == 3
        assert stats.workers_absorbed == 2

    def test_worker_wall_time_lands_in_worker_time(self):
        obs = Obs(trace=False)
        obs.absorb_worker(worker_payload(wall_time_s=0.5))
        obs.absorb_worker(worker_payload(wall_time_s=0.25))
        stats = view(obs)
        assert stats.worker_time_s == 0.75
        assert stats.wall_time_s == 0.0

    def test_absorbing_full_as_dict_payload(self):
        """A worker's full export payload: every counter, plus phases."""
        worker = sink(
            enumerated=100,
            prefiltered=60,
            built=40,
            feasible=30,
            infeasible_at_build=10,
            solve_cache_hits=1,
            solve_cache_misses=2,
        )
        worker.observe("phase.build_s", 0.5)
        parent = sink(enumerated=5)
        parent.absorb_worker(worker.export_payload())
        stats = view(parent)
        assert stats.enumerated == 105
        assert stats.feasible == 30
        assert stats.solve_cache_hits == 1
        assert stats.solve_cache_misses == 2
        # Worker phase CPU is reported separately; it must never land
        # in the parent's wall-clock phase timers (concurrent workers
        # would sum to more CPU than elapsed wall time).
        assert stats.worker_phase_times["build"] == 0.5
        assert "build" not in stats.phase_times

    def test_worker_phase_times_stay_off_parent_wall_clock(self):
        """Regression: at jobs=N the parent's ``phase_times`` used to
        accumulate every worker's per-phase CPU, reporting e.g. a
        1.73 s build phase against 0.66 s of actual wall time."""
        parent = Obs(trace=False)
        parent.observe("phase.build_s", 0.66)  # parent-measured wall time
        for _ in range(4):  # four concurrent workers' CPU payloads
            parent.absorb_worker(worker_payload(phases={"build": 0.43}))
        stats = view(parent)
        assert stats.phase_times["build"] == 0.66
        assert stats.worker_phase_times["build"] == pytest.approx(1.72)
        payload = stats.as_dict()
        assert payload["phase_times"]["build"] == 0.66
        assert payload["worker_phase_times"]["build"] == pytest.approx(1.72)

    def test_nested_worker_phase_times_forward(self):
        """A mid-level worker forwards absorbed sub-worker phase CPU
        under ``worker.phase.*``; it stays worker-side upstream."""
        mid = Obs(trace=False)
        mid.absorb_worker(worker_payload(phases={"build": 0.2}))
        top = Obs(trace=False)
        top.absorb_worker(mid.export_payload())
        stats = view(top)
        assert stats.worker_phase_times["build"] == 0.2
        assert stats.phase_times == {}

    def test_unknown_keys_ignored(self):
        worker = Obs(trace=False)
        worker.inc("pid", 1234)
        worker.gauge("prefilter_rate", 0.9)
        parent = Obs(trace=False)
        parent.absorb_worker(worker.export_payload())
        assert view(parent).as_dict()["enumerated"] == 0

    def test_nested_absorption_counts_forward(self):
        """A worker that itself absorbed sub-workers reports a payload
        whose counts survive one more absorption."""
        mid = Obs(trace=False)
        mid.absorb_worker(worker_payload(built=3, wall_time_s=0.1))
        top = Obs(trace=False)
        top.absorb_worker(mid.export_payload())
        stats = view(top)
        assert stats.built == 3
        assert stats.worker_time_s == 0.1
        assert stats.workers_absorbed == 2  # mid itself + its sub-worker
