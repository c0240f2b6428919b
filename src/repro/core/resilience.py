"""Fault tolerance for the batch/sweep engine.

A multi-hour design-space sweep must not lose everything to one worker
exception, one OOM-killed process, or one hung task.  This module is
the resilience layer the parallel engine
(:mod:`repro.core.parallel`) executes under:

* :class:`ResiliencePolicy` -- what to do when a task fails:
  ``on_error="raise"`` fails fast (the default),
  ``"skip"`` records a :class:`TaskFailure` in the task's result slot
  and keeps going, ``"retry"`` re-runs the task with bounded
  exponential backoff before degrading to a recorded failure.  A
  per-task wall-clock ``timeout_s`` cancels hung tasks (parallel runs
  only -- an in-process task cannot be preempted).
* :class:`Journal` -- an append-only JSONL checkpoint of completed
  tasks keyed by content hash (:func:`task_key`, the same
  canonical-JSON/sha256 scheme as
  :func:`repro.core.solvecache.solve_key`).  Records are written
  atomically at task boundaries, so an interrupted ``run_study``
  resumed against the same journal re-runs only the unfinished cells.
  Only the study matrix journals: its cells are simulations that no
  store holds.  Solves checkpoint in their solve store instead (a
  rerun against the same ``solve_cache=`` solves nothing it holds),
  and the solve stages refuse a journal.
* :class:`FaultPlan` -- a deterministic fault-injection harness for
  tests and smoke jobs: raise/delay/kill the Nth task of a named
  stage, for the first ``trips`` attempts only, so a retried task
  succeeds deterministically.

Failed tasks never poison the pool: the engine captures the exception,
applies the policy, and counts ``retries`` / ``timeouts`` /
``tasks_failed`` / ``pool_rebuilds`` into the ``resilience.*`` metrics
of an :class:`~repro.obs.Obs` (printed by ``--stats`` through
:class:`~repro.core.optimizer.SweepStats`).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

#: Journal file format / key-scheme version.  Bump whenever the record
#: layout or the task_key canonicalization changes; mismatched lines
#: are skipped on load rather than served (v2: keys fold in the
#: simulator's ``SIM_VERSION``).
JOURNAL_VERSION = "repro-journal-v2"

#: The error policies a :class:`ResiliencePolicy` accepts.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


class FaultInjected(RuntimeError):
    """Raised by a :class:`FaultPlan` trip (or a parent-side kill)."""


class TaskTimeout(RuntimeError):
    """A task exceeded its wall-clock budget under ``on_error="raise"``."""


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure, recorded instead of a result.

    In ``skip`` mode (and after ``retry`` exhausts its attempts) the
    failed task's slot in the result list holds one of these, and the
    sweep entry points collect them into their ``.failed`` lists.
    """

    index: int  #: payload index within the map
    stage: str  #: pipeline stage name (e.g. ``study.cell``)
    error_type: str  #: exception class name (``"TaskTimeout"`` for hangs)
    message: str
    attempts: int  #: total attempts made, including the first

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{self.stage}[{self.index}] failed after {self.attempts} "
            f"attempt(s): {self.error_type}: {self.message}"
        )


# --------------------------------------------------------------------- #
# Deterministic fault injection


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: act on the Nth task of a named stage.

    ``trips`` bounds how many *attempts* of that task the fault fires
    on: with ``trips=1`` the first attempt fails and every retry
    succeeds, deterministically, in whichever process runs the task.
    """

    stage: str
    index: int
    action: str  #: ``"raise"`` | ``"delay"`` | ``"kill"``
    delay_s: float = 0.0
    trips: int = 1

    def __post_init__(self) -> None:
        if self.action not in ("raise", "delay", "kill"):
            raise ValueError(f"unknown fault action {self.action!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable bundle of :class:`FaultSpec` entries.

    Pure data with no shared state: trip bookkeeping derives from the
    attempt number the engine passes in, so the plan behaves
    identically in the parent and in any worker process.
    """

    faults: tuple[FaultSpec, ...] = ()

    def fire(self, stage: str, index: int, attempt: int) -> None:
        """Inject the planned fault for (stage, index, attempt), if any.

        ``kill`` hard-exits a *worker* process (exercising
        ``BrokenProcessPool`` recovery); in the parent process it
        degrades to a raised :class:`FaultInjected` so the harness can
        never take the whole run down with it.
        """
        import multiprocessing
        import time

        for f in self.faults:
            if f.stage != stage or f.index != index or attempt > f.trips:
                continue
            if f.action == "delay":
                time.sleep(f.delay_s)
            elif f.action == "kill":
                if multiprocessing.parent_process() is not None:
                    os._exit(1)
                raise FaultInjected(
                    f"injected kill at {stage}[{index}] attempt {attempt}"
                )
            else:
                raise FaultInjected(
                    f"injected fault at {stage}[{index}] attempt {attempt}"
                )


# --------------------------------------------------------------------- #
# Content-hash task keys (the solve_key scheme, generalized)


def _jsonable(value):
    """Canonical JSON-encodable view of a task description.

    Dataclasses become field dicts, enums their values, tuples lists;
    anything else falls back to ``repr``.  Mirrors the spec/target
    serialization of :func:`repro.core.solvecache.solve_key` so keys
    are stable across sessions and processes.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def task_key(stage: str, description) -> str:
    """Stable content hash of one task: sha256 of canonical JSON.

    Numeric leaves are normalized (``32`` and ``32.0`` hash equally),
    exactly as the persistent solve cache hashes its requests.  The
    solver's ``CACHE_VERSION`` and the simulator's ``SIM_VERSION`` are
    folded in, so a journaled study cell never satisfies a resume after
    either model's numbers changed.
    """
    import hashlib

    from repro.core.solvecache import CACHE_VERSION, _normalize_numbers
    from repro.sim import SIM_VERSION

    payload = _normalize_numbers({
        "version": JOURNAL_VERSION,
        "model": CACHE_VERSION,
        "sim": SIM_VERSION,
        "stage": stage,
        "task": _jsonable(description),
    })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Checkpoint journal


class Journal:
    """Append-only JSONL checkpoint of completed task results.

    One line per completed task: ``{"v": ..., "key": ..., "stage": ...,
    "data": <base64 pickle>}``, written in a single ``write`` + flush at
    the task boundary, so a killed run leaves at worst one torn final
    line -- which the loader skips, along with any version-mismatched
    or hand-mangled line, rather than erroring.  Resuming against the
    same journal path restores every recorded result without
    re-executing its task.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._records: dict[str, str] = {}
        self._fh = None
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # torn tail line from a killed writer
            if (
                not isinstance(rec, dict)
                or rec.get("v") != JOURNAL_VERSION
                or "key" not in rec
                or "data" not in rec
            ):
                continue
            self._records[rec["key"]] = rec["data"]

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def result(self, key: str):
        """The recorded result for ``key`` (raises KeyError if absent)."""
        return pickle.loads(base64.b64decode(self._records[key]))

    def record(self, key: str, stage: str, result) -> None:
        """Append one completed task, atomically at the task boundary."""
        data = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        line = json.dumps(
            {"v": JOURNAL_VERSION, "key": key, "stage": stage, "data": data},
            separators=(",", ":"),
        )
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        self._records[key] = data

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# --------------------------------------------------------------------- #
# The policy


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the parallel engine treats task failures.

    ``on_error`` selects the terminal behaviour; ``retry`` re-runs a
    failed task up to ``max_retries`` times with exponential backoff
    (``backoff_s * backoff_factor**(attempt-1)`` seconds) before
    recording a :class:`TaskFailure` like ``skip`` does.  ``timeout_s``
    bounds each task's wall clock in parallel runs: an overdue task is
    cancelled by rebuilding the worker pool (in-flight siblings are
    re-queued without being charged an attempt).  ``journal``
    checkpoints the completed tasks of a map that keys them (the study
    matrix; the solve stages refuse one); ``fault_plan`` injects
    deterministic test faults.

    The policy itself never crosses a process boundary -- only the
    (pure-data) fault plan ships with each task -- so journals with
    open file handles are safe to carry here.
    """

    on_error: str = "raise"
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    timeout_s: float | None = None
    journal: Journal | None = field(default=None, compare=False)
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    @property
    def retries_allowed(self) -> int:
        """Extra attempts after the first (0 unless ``on_error="retry"``)."""
        return self.max_retries if self.on_error == "retry" else 0

    def backoff(self, attempt: int) -> float:
        """Sleep before re-running a task that failed ``attempt`` times."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)
