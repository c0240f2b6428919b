"""The fault-tolerant execution engine: policies, fault plans, resume.

Exercises :mod:`repro.core.resilience` through
:func:`repro.core.parallel.parallel_map` with cheap picklable tasks --
no solver involved -- so every failure mode (worker exception, hard
worker kill) is fast and deterministic.  An interrupted run resumes
from its record store; the resume tests drive the one stage that
checkpoints through the engine, a tiny study matrix.
"""

import dataclasses

import pytest

from repro.core.optimizer import SweepStats
from repro.core.parallel import parallel_map
from repro.core.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    TaskFailure,
)
from repro.obs import Obs

# Module-level task functions: picklable for worker processes, and the
# in-process (jobs=1) engine calls them directly so module globals in
# the parent count executions.

_EXECUTIONS: list = []


def _double(x):
    return x * 2


def _counted_double(x):
    _EXECUTIONS.append(x)
    return x * 2


def _fail_on_negative(x):
    if x < 0:
        raise RuntimeError(f"bad payload {x}")
    return x * 2


def _logged_fail_on_negative(payload):
    """``_fail_on_negative`` that appends one byte per execution to a
    file named after its payload, so runs in workers can be counted."""
    directory, x = payload
    with open(directory / str(x), "a") as fh:
        fh.write(".")
    return _fail_on_negative(x)


# --------------------------------------------------------------------- #
# FaultPlan


def test_fault_plan_fires_deterministically():
    plan = FaultPlan((FaultSpec("s", 1, "raise"),))
    plan.fire("s", 0)  # wrong index: no fire
    plan.fire("other", 1)  # wrong stage: no fire
    for _ in range(2):  # the same task fails the same way every time
        with pytest.raises(FaultInjected, match=r"s\[1\]"):
            plan.fire("s", 1)


def test_kill_fault_is_a_no_op_in_parent():
    # os._exit in the parent would take the whole run (and the test
    # runner) down; in-process the kill action does nothing, so the
    # parent's re-run of a killed task succeeds.
    plan = FaultPlan((FaultSpec("s", 0, "kill"),))
    plan.fire("s", 0)


def test_fault_spec_rejects_unknown_action():
    for action in ("explode", "delay"):
        with pytest.raises(ValueError):
            FaultSpec("s", 0, action)


# --------------------------------------------------------------------- #
# Policy validation


def test_policy_validates_inputs():
    for on_error in ("ignore", "retry"):
        with pytest.raises(ValueError):
            ResiliencePolicy(on_error=on_error)


# --------------------------------------------------------------------- #
# Error policies through parallel_map


@pytest.mark.parametrize("jobs", [1, 2])
def test_skip_mode_records_failures_in_place(jobs, tmp_path):
    obs = Obs(trace=False)
    stats = SweepStats(obs.metrics)
    out = parallel_map(
        _logged_fail_on_negative,
        [(tmp_path, x) for x in (1, -1, 3, -2)],
        jobs,
        span_name="s",
        resilience=ResiliencePolicy(on_error="skip"),
        obs=obs,
    )
    assert out[0] == 2 and out[2] == 6
    assert out[1] == TaskFailure(1, "s", "RuntimeError", "bad payload -1")
    assert out[3] == TaskFailure(3, "s", "RuntimeError", "bad payload -2")
    assert str(out[1]) == "s[1] failed: RuntimeError: bad payload -1"
    assert stats.tasks_failed == 2
    # Tasks are deterministic, so the engine never re-runs a failure:
    # every task ran exactly once.
    runs = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert runs == {"1": ".", "-1": ".", "3": ".", "-2": "."}


@pytest.mark.parametrize("jobs", [1, 2])
def test_raise_mode_propagates(jobs):
    with pytest.raises(RuntimeError, match="bad payload"):
        parallel_map(
            _fail_on_negative,
            [1, -1, 3],
            jobs,
            resilience=ResiliencePolicy(on_error="raise"),
        )


def test_kill_fault_triggers_pool_rebuild():
    # Task 1 hard-exits its worker, breaking the pool.  The engine
    # harvests survivors, re-runs the in-flight tasks in the parent
    # (where the kill does nothing), rebuilds the pool, and completes
    # every result -- under either policy, since a dead worker is not
    # a task failure.
    for on_error in ("raise", "skip"):
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        policy = ResiliencePolicy(
            on_error=on_error,
            fault_plan=FaultPlan((FaultSpec("s", 1, "kill"),)),
        )
        out = parallel_map(
            _double, list(range(6)), 2, span_name="s",
            resilience=policy, obs=obs,
        )
        assert out == [0, 2, 4, 6, 8, 10]
        assert stats.pool_rebuilds >= 1
        assert stats.tasks_failed == 0


def test_failure_records_do_not_depend_on_the_job_count():
    """A raise fault and a worker-killing fault under skip: the same
    values and the same TaskFailure records at one job and at two (a
    pool death changes nothing a caller reads)."""
    policy = ResiliencePolicy(
        on_error="skip",
        fault_plan=FaultPlan((
            FaultSpec("s", 1, "raise"),
            FaultSpec("s", 3, "kill"),
        )),
    )
    runs = {
        jobs: parallel_map(_double, list(range(6)), jobs, span_name="s",
                           resilience=policy)
        for jobs in (1, 2)
    }
    assert runs[1] == runs[2]
    assert runs[1][1] == TaskFailure(
        1, "s", "FaultInjected", "injected fault at s[1]"
    )
    assert [v for i, v in enumerate(runs[1]) if i != 1] == [0, 4, 6, 8, 10]


# --------------------------------------------------------------------- #
# Checkpoint / resume


def _study(**kwargs):
    from repro.study.runner import run_study
    from repro.workloads.npb import UA_C

    return run_study(profiles=(UA_C,), configs=("nol3", "sram", "cm_dram_c"),
                     instructions_per_thread=2000, **kwargs)


def _cells(obs):
    counters = obs.metrics.counters
    return tuple(
        counters[name].value if name in counters else 0
        for name in ("study.cells", "study.cells_restored")
    )


def _asdicts(result):
    return {cell: dataclasses.asdict(run)
            for cell, run in result.results.items()}


def test_resume_executes_only_unfinished_tasks(tmp_path):
    cache = tmp_path / "study.db"

    # The fault interrupts the matrix at cell 2, after cells 0 and 1
    # finished and were stored.
    interrupted = ResiliencePolicy(
        fault_plan=FaultPlan((FaultSpec("study.cell", 2, "raise"),)),
    )
    with pytest.raises(FaultInjected):
        _study(jobs=1, resilience=interrupted, cache=cache)

    # The rerun restores those cells and runs only the rest.
    obs = Obs()
    resumed = _study(jobs=1, obs=obs, cache=cache)
    assert _cells(obs) == (1, 2)
    assert [s.name for s in obs.tracer.spans].count("study.cell") == 1
    assert len(resumed.results) == 3

    # A third run is a pure restore: no cell runs.
    obs = Obs()
    again = _study(jobs=1, obs=obs, cache=cache)
    assert _cells(obs) == (0, 3)
    assert "study.cell" not in [s.name for s in obs.tracer.spans]
    assert _asdicts(again) == _asdicts(resumed)


def test_resume_across_job_counts(tmp_path):
    """A matrix interrupted at any cell resumes at one job or at two,
    and every restored or rerun cell equals a run without a store."""
    plain = _asdicts(_study(jobs=1))
    for k in range(3):
        for jobs in (1, 2):
            cache = tmp_path / f"k{k}-j{jobs}.db"
            interrupted = ResiliencePolicy(
                fault_plan=FaultPlan((FaultSpec("study.cell", k, "raise"),)),
            )
            with pytest.raises(FaultInjected):
                _study(jobs=1, resilience=interrupted, cache=cache)
            obs = Obs(trace=False)
            resumed = _study(jobs=jobs, obs=obs, cache=cache)
            assert _cells(obs) == (3 - k, k)
            assert _asdicts(resumed) == plain
