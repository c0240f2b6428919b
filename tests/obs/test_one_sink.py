"""The solve pipeline has one telemetry sink: ``Obs``.

``SweepStats`` is a read-only view over ``obs.metrics``, so ``--stats``
and ``--metrics`` must report the same run, no entry point takes a
separate ``stats`` accumulator, and every path of a sweep -- the
resilient one included -- counts into the ``obs`` it was handed.
"""

import inspect
import json

import pytest

from repro.cachedb import build_cachedb
from repro.cli import main
from repro.core import cacti, optimizer, parallel
from repro.core.config import MemorySpec
from repro.core.optimizer import SWEEP_METRICS, SweepStats
from repro.core.resilience import FaultPlan, FaultSpec, ResiliencePolicy
from repro.obs import MetricsRegistry, Obs, phase
from repro.study import sensitivity
from repro.study.runner import run_study
from repro.study.table3 import solve_table3
from repro.validation.compare import validate_ddr3

ENTRY_POINTS = [
    optimizer.optimize,
    optimizer.pareto_solutions,
    optimizer.feasible_designs,
    cacti.solve,
    cacti.solve_batch,
    cacti.solve_main_memory,
    sensitivity.sweep,
    run_study,
    build_cachedb,
    validate_ddr3,
    parallel.parallel_map,
    phase,
]


@pytest.mark.parametrize(
    "entry", ENTRY_POINTS, ids=lambda f: f"{f.__module__}.{f.__name__}"
)
def test_no_entry_point_takes_stats(entry):
    signature = inspect.signature(inspect.unwrap(entry))
    assert "stats" not in signature.parameters
    assert "obs" in signature.parameters


def test_table3_has_no_stats_knob():
    with pytest.raises(TypeError):
        solve_table3(stats=object())


@pytest.mark.parametrize("argv", [
    ["cache", "--capacity", "2M", "--assoc", "8"],
    ["sweep", "--capacity", "256K", "--assoc", "8",
     "--parameter", "associativity", "--values", "4,8", "--jobs", "2"],
    ["table3"],
], ids=["cache", "sweep-jobs2", "table3"])
def test_stats_agrees_with_metrics(argv, tmp_path, capsys, monkeypatch):
    """Every ``--stats`` counter equals its registry name in the
    ``--metrics`` file, and the printed report is the one the file
    reproduces."""
    import repro.cli as cli

    views = []

    class RecordingView(SweepStats):
        __slots__ = ()

        def __init__(self, metrics):
            super().__init__(metrics)
            views.append(self)

    monkeypatch.setattr(cli, "SweepStats", RecordingView)
    metrics = tmp_path / "metrics.json"
    assert main([*argv, "--stats", "--metrics", str(metrics)]) == 0
    printed = capsys.readouterr().out
    snapshot = json.loads(metrics.read_text())

    (stats,) = views
    reported = stats.as_dict()
    for field, name in SWEEP_METRICS.items():
        assert reported[field] == snapshot["counters"].get(name, 0), field
    assert reported["enumerated"] > 0

    reloaded = MetricsRegistry()
    reloaded.absorb(snapshot)
    assert printed.endswith(SweepStats(reloaded).summary() + "\n")


def test_resilient_sweep_counts_into_obs():
    """Regression: the resilient sweep path never handed ``obs`` to the
    parallel engine, so a failed point was missing from ``obs``."""
    base = MemorySpec(
        capacity_bytes=32 << 10, block_bytes=64, associativity=8,
        node_nm=32.0,
    )
    policy = ResiliencePolicy(
        on_error="skip",
        fault_plan=FaultPlan((FaultSpec("sweep.point", 0, "raise"),)),
    )
    obs = Obs()
    result = sensitivity.sweep(
        base, "capacity_bytes", [32 << 10, 64 << 10],
        jobs=1, resilience=policy, obs=obs,
    )
    assert len(result.failed) == 1
    assert obs.metrics.snapshot()["counters"]["resilience.tasks_failed"] == 1
    assert SweepStats(obs.metrics).tasks_failed == 1
    # A serial map records one span per point it runs.
    points = [s.attrs["index"] for s in obs.tracer.spans
              if s.name == "sweep.point"]
    assert points == [0, 1]
