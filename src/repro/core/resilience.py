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
* :class:`Journal` -- an append-only JSONL checkpoint of completed
  tasks keyed by content hash (:func:`task_key`, the same
  canonical-JSON/sha256 scheme as
  :func:`repro.core.solvecache.solve_key`).  Records are written
  atomically at task boundaries, so an interrupted ``run_study``
  resumed against the same journal re-runs only the unfinished cells.
  Only the study matrix journals (``run_study(journal=)``): its cells
  are simulations that no store holds.  Solves checkpoint in their
  solve store instead (a rerun against the same ``solve_cache=``
  solves nothing it holds).
* :class:`FaultPlan` -- a deterministic fault-injection harness for
  tests and smoke jobs: raise in the Nth task of a named stage, or
  hard-exit the worker running it.

Failed tasks never poison the pool: the engine captures the exception,
applies the policy, and counts ``tasks_failed`` / ``pool_rebuilds``
into the ``resilience.*`` metrics of an :class:`~repro.obs.Obs`
(printed by ``--stats`` through
:class:`~repro.core.optimizer.SweepStats`).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

#: Journal file format / key-scheme version.  Bump whenever the record
#: layout or the task_key canonicalization changes; mismatched lines
#: are skipped on load rather than served (v2: keys fold in the
#: simulator's ``SIM_VERSION``).
JOURNAL_VERSION = "repro-journal-v2"

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
