"""The fault-tolerant execution engine: policies, journal, fault plans.

Exercises :mod:`repro.core.resilience` through
:func:`repro.core.parallel.parallel_map` with cheap picklable tasks --
no solver involved -- so every failure mode (worker exception, hard
worker kill, interrupted run) is fast and deterministic.
"""

import json

import pytest

from repro.core.optimizer import SweepStats
from repro.core.parallel import parallel_map
from repro.core.resilience import (
    JOURNAL_VERSION,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Journal,
    ResiliencePolicy,
    TaskFailure,
    task_key,
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
# task_key


def test_task_key_is_stable_and_normalized():
    a = task_key("stage", {"node": 32, "cap": 1024})
    assert a == task_key("stage", {"node": 32, "cap": 1024})
    # Numeric normalization: 32 and 32.0 describe the same task.
    assert a == task_key("stage", {"node": 32.0, "cap": 1024.0})
    # Stage and content both separate keys.
    assert a != task_key("other", {"node": 32, "cap": 1024})
    assert a != task_key("stage", {"node": 45, "cap": 1024})


def test_task_key_handles_dataclasses_and_enums():
    from repro.core.config import MemorySpec, OptimizationTarget

    spec = MemorySpec(capacity_bytes=32 << 10, block_bytes=64,
                      associativity=8, node_nm=32.0)
    k1 = task_key("s", {"spec": spec, "target": OptimizationTarget()})
    k2 = task_key("s", {"spec": spec, "target": OptimizationTarget()})
    assert k1 == k2
    bigger = MemorySpec(capacity_bytes=64 << 10, block_bytes=64,
                        associativity=8, node_nm=32.0)
    assert k1 != task_key(
        "s", {"spec": bigger, "target": OptimizationTarget()}
    )


# --------------------------------------------------------------------- #
# Journal


def test_journal_round_trip(tmp_path):
    path = tmp_path / "run.journal"
    journal = Journal(path)
    journal.record("k1", "stage.a", {"answer": 42})
    journal.record("k2", "stage.b", (1, 2.5, "x"))
    journal.close()

    reloaded = Journal(path)
    assert len(reloaded) == 2
    assert "k1" in reloaded and "k2" in reloaded
    assert reloaded.result("k1") == {"answer": 42}
    assert reloaded.result("k2") == (1, 2.5, "x")


def test_journal_skips_torn_and_mismatched_lines(tmp_path):
    path = tmp_path / "run.journal"
    journal = Journal(path)
    journal.record("good", "s", 7)
    journal.close()
    with path.open("a") as fh:
        fh.write(json.dumps({"v": "other-version", "key": "bad",
                             "data": "eA=="}) + "\n")
        fh.write("not json at all\n")
        fh.write('{"v": "%s", "key": "torn", "da' % JOURNAL_VERSION)
    reloaded = Journal(path)
    assert len(reloaded) == 1
    assert reloaded.result("good") == 7


def test_journal_appends_across_sessions(tmp_path):
    path = tmp_path / "run.journal"
    first = Journal(path)
    first.record("k1", "s", "one")
    first.close()
    second = Journal(path)
    second.record("k2", "s", "two")
    second.close()
    assert len(Journal(path)) == 2


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


def test_journal_bearing_policy_requires_keys(tmp_path):
    journal = Journal(tmp_path / "j")
    with pytest.raises(ValueError, match="keys"):
        parallel_map(_double, [1, 2], 1, journal=journal)


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


def test_resume_executes_only_unfinished_tasks(tmp_path):
    path = tmp_path / "map.journal"
    payloads = [1, 2, 3, 4]
    keys = [task_key("s", {"x": p}) for p in payloads]

    # First run completes half the map, then the fault interrupts it.
    _EXECUTIONS.clear()
    journal = Journal(path)
    policy = ResiliencePolicy(
        fault_plan=FaultPlan((FaultSpec("s", 2, "raise"),)),
    )
    with pytest.raises(FaultInjected):
        parallel_map(
            _counted_double, payloads, 1, span_name="s",
            resilience=policy, journal=journal, keys=keys,
        )
    journal.close()
    assert _EXECUTIONS == [1, 2]  # tasks 0 and 1 ran and were journaled
    assert len(Journal(path)) == 2

    # The resumed run restores those results and executes only the rest.
    _EXECUTIONS.clear()
    resumed = Journal(path)
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        journal=resumed, keys=keys,
    )
    resumed.close()
    assert out == [2, 4, 6, 8]
    assert _EXECUTIONS == [3, 4]  # the journaled half never re-ran
    assert len(Journal(path)) == 4

    # A third run is a pure restore: zero executions.
    _EXECUTIONS.clear()
    final = Journal(path)
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        journal=final, keys=keys,
    )
    final.close()
    assert out == [2, 4, 6, 8]
    assert _EXECUTIONS == []


def test_resume_across_job_counts(tmp_path):
    # A journal written by a parallel run restores into a serial run
    # (and vice versa): the task shape is identical in both modes.
    path = tmp_path / "map.journal"
    payloads = [5, 6, 7]
    keys = [task_key("s", {"x": p}) for p in payloads]
    journal = Journal(path)
    out = parallel_map(
        _double, payloads, 2, span_name="s",
        journal=journal, keys=keys,
    )
    journal.close()
    assert out == [10, 12, 14]

    _EXECUTIONS.clear()
    resumed = Journal(path)
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        journal=resumed, keys=keys,
    )
    resumed.close()
    assert out == [10, 12, 14]
    assert _EXECUTIONS == []  # fully restored, nothing executed
