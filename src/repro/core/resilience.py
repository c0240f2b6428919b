"""Fault tolerance for the batch/sweep engine.

A multi-hour design-space sweep must not lose everything to one worker
exception or one OOM-killed process.  This module is the failure
handling the parallel engine (:mod:`repro.core.parallel`) executes
under.  Every task is a deterministic function of its payload, so a
failed task would fail the same way again: the engine never retries.

* :class:`ResiliencePolicy` -- what to do when a task fails:
  ``on_error="raise"`` fails fast (the default), ``"skip"`` records a
  :class:`TaskFailure` in the task's result slot and keeps going.  A
  worker that dies is not a task failure: the engine re-runs its
  in-flight tasks in the parent and rebuilds the pool.
* :class:`FaultPlan` -- a deterministic fault-injection harness for
  tests and smoke jobs: raise in the Nth task of a named stage, or
  hard-exit the worker running it.

Nothing here checkpoints.  A rerun resumes from the one record store
(:class:`~repro.store.SqliteStore`): solves from their solve store
(``solve_cache=``), the study matrix from its cell records
(``run_study(cache=)``), each served without re-running its task.

Failed tasks never poison the pool: the engine captures the exception,
applies the policy, and counts ``tasks_failed`` / ``pool_rebuilds``
into the ``resilience.*`` metrics of an :class:`~repro.obs.Obs`
(printed by ``--stats`` through
:class:`~repro.core.optimizer.SweepStats`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: The error policies a :class:`ResiliencePolicy` accepts.
ON_ERROR_POLICIES = ("raise", "skip")


class FaultInjected(RuntimeError):
    """Raised by a :class:`FaultPlan` ``raise`` fault."""


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure, recorded instead of a result.

    In ``skip`` mode the failed task's slot in the result list holds
    one of these, and the sweep entry points collect them into their
    ``.failed`` lists.  A record depends only on the task, never on the
    job count.
    """

    index: int  #: payload index within the map
    stage: str  #: pipeline stage name (e.g. ``study.cell``)
    error_type: str  #: exception class name
    message: str

    def __str__(self) -> str:
        return (
            f"{self.stage}[{self.index}] failed: "
            f"{self.error_type}: {self.message}"
        )


# --------------------------------------------------------------------- #
# Deterministic fault injection


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: act on the Nth task of a named stage.

    ``"raise"`` raises :class:`FaultInjected` in whichever process runs
    the task.  ``"kill"`` hard-exits a *worker* process (exercising
    ``BrokenProcessPool`` recovery) and does nothing in the parent, so
    the parent's re-run of the task succeeds.
    """

    stage: str
    index: int
    action: str  #: ``"raise"`` | ``"kill"``

    def __post_init__(self) -> None:
        if self.action not in ("raise", "kill"):
            raise ValueError(f"unknown fault action {self.action!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable bundle of :class:`FaultSpec` entries.

    Pure data with no shared state, so the plan behaves identically in
    the parent and in any worker process.
    """

    faults: tuple[FaultSpec, ...] = ()

    def fire(self, stage: str, index: int) -> None:
        """Inject the planned fault for (stage, index), if any."""
        import multiprocessing

        for f in self.faults:
            if f.stage != stage or f.index != index:
                continue
            if f.action == "raise":
                raise FaultInjected(f"injected fault at {stage}[{index}]")
            if multiprocessing.parent_process() is not None:
                os._exit(1)


# --------------------------------------------------------------------- #
# The policy


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the parallel engine treats task failures.

    ``on_error`` selects the behaviour: ``"raise"`` re-raises the first
    task error, ``"skip"`` records a :class:`TaskFailure` in the task's
    slot and runs on.  ``fault_plan`` injects deterministic test faults;
    it is the only part of the policy that ships with each task.
    """

    on_error: str = "raise"
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
