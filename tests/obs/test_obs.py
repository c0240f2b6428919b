"""Unit tests for the Obs bundle and the phase/maybe_span helpers."""

import time

import pytest

from repro.core.optimizer import SweepStats
from repro.obs import Obs, maybe_span, phase


class TestMaybeSpan:
    def test_none_obs_is_a_free_noop(self):
        with maybe_span(None, "solve") as span:
            assert span is None

    def test_live_obs_records_a_span(self):
        obs = Obs()
        with maybe_span(obs, "solve", capacity=64) as span:
            assert span is not None
        assert [s.name for s in obs.tracer.spans] == ["solve"]
        assert obs.tracer.spans[0].attrs == {"capacity": 64}

    def test_metrics_only_obs_records_no_span(self):
        obs = Obs(trace=False)
        assert obs.tracer is None
        with maybe_span(obs, "solve") as span:
            assert span is None


class TestPhase:
    def test_no_sinks_yields_nothing(self):
        with phase("build") as span:
            assert span is None

    def test_stats_only_populates_phase_times(self):
        """``--stats`` alone runs a metrics-only Obs: the phase clock
        is read, no span is recorded."""
        obs = Obs(trace=False)
        with phase("build", obs) as span:
            assert span is None
        stats = SweepStats(obs.metrics)
        assert "build" in stats.phase_times
        assert stats.phase_times["build"] >= 0.0

    def test_obs_records_span_and_histogram(self):
        obs = Obs()
        with phase("build", obs):
            pass
        assert [s.name for s in obs.tracer.spans] == ["build"]
        h = obs.metrics.snapshot()["histograms"]["phase.build_s"]
        assert h["count"] == 1

    def test_one_measurement_feeds_both_sinks(self):
        """SweepStats is a view of the histogram, which is timed from
        the span's own start."""
        obs = Obs()
        with phase("build", obs):
            time.sleep(0.01)
        h = obs.metrics.snapshot()["histograms"]["phase.build_s"]
        assert SweepStats(obs.metrics).phase_times["build"] == h["sum"]
        (span,) = obs.tracer.spans
        assert h["sum"] == pytest.approx(span.duration_s, abs=1e-3)


class TestObsBundle:
    def test_delegates(self):
        obs = Obs()
        obs.inc("events")
        obs.inc("events", 2)
        obs.observe("latency", 0.5)
        obs.gauge("workers", 4)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["events"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["workers"] == 4

    def test_worker_round_trip(self):
        worker = Obs()
        with worker.span("chunk"):
            worker.inc("optimizer.built", 5)
        parent = Obs()
        parent.inc("optimizer.built", 1)
        parent.absorb_worker(worker.export_payload())
        assert parent.metrics.snapshot()["counters"]["optimizer.built"] == 6
        assert [s.name for s in parent.tracer.spans] == ["chunk"]

    def test_absorb_worker_none_is_a_noop(self):
        parent = Obs()
        parent.absorb_worker(None)
        assert len(parent.tracer) == 0
        assert parent.metrics.snapshot()["counters"] == {}

    def test_absorb_worker_files_clock_readings_under_worker(self):
        worker = Obs(trace=False)
        worker.inc("optimizer.built", 2)
        worker.inc("optimizer.wall_s", 0.5)
        worker.inc("worker.optimizer.wall_s", 0.25)  # already nested
        worker.observe("phase.build_s", 0.1)
        worker.observe("worker.phase.build_s", 0.2)
        worker.gauge("store.records", 7)
        assert worker.export_payload()["trace"] is None
        parent = Obs()
        parent.absorb_worker(worker.export_payload())
        snap = parent.metrics.snapshot()
        assert snap["counters"] == {
            "optimizer.built": 2,
            "parallel.workers_absorbed": 1,
            "worker.optimizer.wall_s": 0.75,
        }
        assert set(snap["histograms"]) == {"worker.phase.build_s"}
        assert snap["histograms"]["worker.phase.build_s"]["count"] == 2
        assert snap["gauges"] == {"store.records": 7}
        assert len(parent.tracer) == 0

    def test_metrics_only_parent_drops_worker_spans(self):
        worker = Obs()
        with worker.span("chunk"):
            worker.inc("optimizer.built")
        parent = Obs(trace=False)
        parent.absorb_worker(worker.export_payload())
        assert parent.tracer is None
        assert SweepStats(parent.metrics).built == 1
