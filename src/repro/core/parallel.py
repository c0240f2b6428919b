"""Multi-process batch execution engine for design-space sweeps.

CACTI-D's value is sweeping *many* configurations: batches of
independent solves across a study matrix, sensitivity sweeps around a
base point, and precomputed design-space grids.  Each task is a whole
solve or simulation -- big enough to pay for a worker process -- and
they all share one engine: :func:`parallel_map`, an order-preserving
map that runs its tasks in this process (``jobs=1``) or over a
``ProcessPoolExecutor`` whose workers each keep one worker-local
:class:`~repro.array.organization.EvalCache`.  (One solve's candidate
sweep is not split across workers: the vectorized kernels finish even
the largest sweeps in milliseconds.)

Determinism is the contract.  Results come back in payload order, and
worker-local eval caches cannot change numbers: cached and uncached
construction produce the same frozen objects performing the same
computations.

Every map runs under a :class:`~repro.core.resilience.ResiliencePolicy`
-- the default one raises the first task error, with no retries and no
journal.  A skip/retry policy returns failed payloads as
:class:`~repro.core.resilience.TaskFailure` records instead of
poisoning the pool, with bounded retries, per-task wall-clock timeouts
(cancelled by rebuilding the pool), ``BrokenProcessPool`` recovery
(rebuild + serial re-run of the in-flight tasks in the parent), and
checkpoint/resume through the policy's journal.

A task run in this process records into the map's own
:class:`~repro.obs.Obs` and, under :func:`in_parent`, solves on the
caller's caches.  A task in a worker records into an Obs of the
parent's kind and ships its ``export_payload()`` home, where
:meth:`~repro.obs.Obs.absorb_worker`, the one worker merge, takes it.
The pool stack (``concurrent.futures``, ``multiprocessing``) is
imported on the first pool, so a serial process never loads it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Callable, Sequence

from repro.core.resilience import (
    ResiliencePolicy,
    TaskFailure,
    TaskTimeout,
)
from repro.obs import Obs, maybe_span

#: Worker-local cross-candidate cache, created on a worker's first task
#: (one per worker process, reused across every task that worker runs).
_WORKER_EVAL_CACHE = None

#: Worker-local persistent solve caches, keyed by store URL.  A worker
#: task that opened a fresh :class:`SolveCache` per task would reopen
#: the database every time; memoizing by URL (mirroring the
#: worker-local EvalCache) opens it once per worker.
_WORKER_SOLVE_CACHES: dict = {}

#: Cachedb readers a worker inherited from its parent; never touched.
_INHERITED_DBS: list = []

#: The Obs of the map whose tasks run in this process right now (see
#: :func:`in_parent`); None between maps and in worker processes.
_PARENT_OBS = None


#: Sentinel worker-count request: let the engine decide (see
#: :func:`effective_jobs`).  The CLI default.
AUTO_JOBS = "auto"


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a worker-count request.

    ``None``, a non-positive count, or :data:`AUTO_JOBS` means "all
    available cores" (respecting CPU affinity where the platform
    exposes it); any positive count is taken literally.  Callers that
    know their task count should prefer :func:`effective_jobs`, which
    gives ``"auto"`` its serial-fallback heuristic.
    """
    if jobs == AUTO_JOBS:
        jobs = None
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    return int(jobs)


def effective_jobs(jobs: int | str | None, n_tasks: int | None = None) -> int:
    """Resolve a jobs request, giving ``"auto"`` its heuristic.

    Explicit requests are honored as :func:`resolve_jobs` always has
    (``1`` serial, ``N`` literal, ``None``/``<= 0`` all cores).
    ``"auto"`` picks all cores only when that can plausibly win: it
    falls back to serial when the machine has a single usable core
    (workers would just add fork and pickling overhead) or when there
    are fewer than two tasks -- ``n_tasks``, if the caller knows it --
    to spread.
    """
    if jobs != AUTO_JOBS:
        return resolve_jobs(jobs)
    cores = resolve_jobs(None)
    if cores <= 1:
        return 1
    if n_tasks is not None and n_tasks < 2:
        return 1
    return cores


def _init_worker() -> None:
    """Pool initializer: fresh worker-local state (a forked worker
    would otherwise inherit whatever its parent held)."""
    global _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS
    _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS = None, {}, None
    reader = sys.modules.get("repro.cachedb.reader")
    if reader is not None and reader._OPEN_DBS:
        # They hold the parent's sqlite connections, which a forked
        # child must neither use nor close (by dropping the last ref).
        _INHERITED_DBS.append(reader._OPEN_DBS)
        reader._OPEN_DBS = {}


def worker_eval_cache():
    """The EvalCache a task solves on: the worker's own in a worker, the
    caller's (:func:`in_parent`) or a per-run one in the parent."""
    global _WORKER_EVAL_CACHE
    if _WORKER_EVAL_CACHE is None:
        from repro.array.organization import EvalCache

        _WORKER_EVAL_CACHE = EvalCache()
    return _WORKER_EVAL_CACHE


@contextmanager
def in_parent(obs: Obs | None, eval_cache=None, solve_cache=None):
    """Hand the tasks a map runs in this process the caller's state.

    Inside it :func:`worker_obs` returns ``obs``,
    :func:`worker_eval_cache` returns ``eval_cache`` (a fresh one for
    the run when None) and :func:`worker_solve_cache` returns the
    ``solve_cache`` instance, so in-process tasks share the caller's
    sink, memo and store (and its deferred flush) instead of opening
    worker copies that outlive the run.  The engine enters it around
    every in-process run; a map's ``scope`` re-enters it with the
    caller's caches.
    """
    global _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS
    saved = _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS
    _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS = (
        eval_cache, {}, obs
    )
    if solve_cache is not None:
        _WORKER_SOLVE_CACHES[os.fspath(solve_cache.url)] = solve_cache
    try:
        yield
    finally:
        _WORKER_EVAL_CACHE, _WORKER_SOLVE_CACHES, _PARENT_OBS = saved


def worker_solve_cache(spec):
    """The calling process's SolveCache for ``spec`` (one per store).

    ``spec`` is a store URL or path as produced by
    :attr:`~repro.core.solvecache.SolveCache.url` -- parents thread it
    to workers so every process opens the same database with the same
    eviction bound.  Worker tasks share one persistent cache instance
    per store spec for the life of the process, so the database is
    opened once per worker instead of once per task.  Concurrent
    writers stay safe: row upserts serialize on the database write lock
    (see :class:`~repro.core.solvecache.SolveCache`).
    """
    if spec is None:
        return None
    from repro.core.solvecache import SolveCache

    key = os.fspath(spec)
    cache = _WORKER_SOLVE_CACHES.get(key)
    if cache is None:
        cache = _WORKER_SOLVE_CACHES[key] = SolveCache(key)
    return cache


def obs_kind(obs: Obs | None) -> bool | None:
    """What a worker task needs to build an Obs like ``obs``: None when
    the parent has no sink, else whether it traces (see
    :func:`worker_obs`)."""
    return None if obs is None else obs.tracer is not None


def worker_obs(kind: bool | None) -> Obs | None:
    """The Obs a task records into: the map's own in this process, and
    in a worker a fresh one of the :func:`obs_kind` the parent sent --
    none, a metrics-only one, or a traced one."""
    if _PARENT_OBS is not None:
        return _PARENT_OBS
    return None if kind is None else Obs(trace=kind)


def obs_payload(obs: Obs | None) -> dict | None:
    """What a task ships home for :func:`worker_obs`: a worker's
    ``export_payload()``, or None when there is no sink or the task ran
    in this process (it recorded into the map's Obs already)."""
    if obs is None or obs is _PARENT_OBS:
        return None
    return obs.export_payload()


def parallel_map(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    *,
    obs: Obs | None = None,
    span_name: str | None = None,
    resilience: ResiliencePolicy | None = None,
    keys: Sequence[str] | None = None,
    scope: Callable | None = None,
) -> list:
    """Order-preserving map over worker processes.

    ``jobs=1`` (or a single task to run) runs ``fn`` in this process --
    no executor, no pickling.  Results always come back in payload
    order, never completion order, so downstream merges are
    deterministic.  ``scope``, given the payloads about to run in this
    process, returns a context manager held open around them: the
    serial run, or a task re-run in the parent after a pool broke.
    Batch callers use it to warm their caches up and to hand the tasks
    the caller's caches (:func:`in_parent`); tasks that run in
    workers do without it.

    A tracing ``obs`` traces the map: a serial run records one
    ``span_name`` span per task it runs (attribute ``index``), a
    parallel run one enclosing ``<span_name>.map`` span (per-task spans
    inside workers are the task function's job to ship home).

    ``resilience`` (default: a plain :class:`ResiliencePolicy`, which
    raises the first task error) sets the fault tolerance: per-task
    error capture (``on_error`` policy with bounded exponential-backoff
    retries), per-task wall-clock timeouts with cancellation, pool
    rebuild + parent-side serial re-run of in-flight tasks on
    ``BrokenProcessPool``, and -- when the policy carries a journal and
    ``keys`` names each task -- checkpointed results restored without
    re-execution.  Failed slots hold
    :class:`~repro.core.resilience.TaskFailure` records in skip/retry
    mode.  ``obs`` counts ``resilience.retries``, ``.timeouts``,
    ``.tasks_failed``, ``.pool_rebuilds`` and ``.journal_restored``.
    """
    return _ResilientMap(
        fn,
        list(payloads),
        jobs,
        resilience if resilience is not None else ResiliencePolicy(),
        keys=keys,
        stage=span_name or "parallel_map",
        obs=obs,
        scope=scope,
    ).run()


# --------------------------------------------------------------------- #
# The execution engine.


def _policy_task(wrapped: tuple):
    """Worker-side task shim: fire any planned fault, then run the task.

    Ships ``(fn, payload, stage, index, attempt, fault_plan)`` instead
    of the bare payload so deterministic fault injection happens inside
    whichever process executes the task.
    """
    fn, payload, stage, index, attempt, fault_plan = wrapped
    if fault_plan is not None:
        fault_plan.fire(stage, index, attempt)
    return fn(payload)


class _ResilientMap:
    """One map execution (see :func:`parallel_map`)."""

    def __init__(self, fn, payloads, jobs, policy, *, keys, stage, obs,
                 scope):
        if policy.journal is not None and keys is None:
            raise ValueError(
                "a journal-bearing policy needs per-task keys"
            )
        if keys is not None and len(keys) != len(payloads):
            raise ValueError(
                f"{len(payloads)} payloads but {len(keys)} keys"
            )
        self.fn = fn
        self.payloads = payloads
        self.policy = policy
        self.keys = keys
        self.stage = stage
        self.obs = obs
        self.scope = scope
        self.results: list = [None] * len(payloads)
        self.todo = self._restore_from_journal()
        self.jobs = min(resolve_jobs(jobs), max(1, len(self.todo)))

    # -- accounting ---------------------------------------------------- #

    def _count(self, what: str, n: int = 1) -> None:
        if self.obs is not None:
            self.obs.inc(f"resilience.{what}", n)

    # -- journal ------------------------------------------------------- #

    def _restore_from_journal(self) -> list[int]:
        journal = self.policy.journal
        if journal is None:
            return list(range(len(self.payloads)))
        todo = []
        for i in range(len(self.payloads)):
            if self.keys[i] in journal:
                self.results[i] = journal.result(self.keys[i])
            else:
                todo.append(i)
        if self.obs is not None and len(todo) < len(self.payloads):
            self.obs.inc(
                "resilience.journal_restored",
                len(self.payloads) - len(todo),
            )
        return todo

    def _success(self, index: int, value) -> None:
        self.results[index] = value
        journal = self.policy.journal
        if journal is not None:
            journal.record(self.keys[index], self.stage, value)

    # -- failure policy ------------------------------------------------ #

    def _handle_error(self, index: int, attempt: int, exc) -> bool:
        """Apply the policy to one failed attempt.

        Returns True when the task should be re-attempted (the caller
        re-queues it); records a TaskFailure or re-raises otherwise.
        """
        if attempt <= self.policy.retries_allowed:
            self._count("retries")
            time.sleep(self.policy.backoff(attempt))
            return True
        if self.policy.on_error == "raise":
            raise exc
        self._count("tasks_failed")
        self.results[index] = TaskFailure(
            index=index,
            stage=self.stage,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempt,
        )
        return False

    # -- execution ----------------------------------------------------- #

    def run(self) -> list:
        if not self.todo:
            return self.results
        if self.jobs <= 1:
            self._run_serial()
            return self.results
        with maybe_span(
            self.obs,
            f"{self.stage}.map",
            jobs=self.jobs,
            tasks=len(self.todo),
            skipped=len(self.payloads) - len(self.todo),
        ):
            self._run_parallel()
        return self.results

    @contextmanager
    def _in_process(self, indices: list[int]):
        """The context tasks ``indices`` run in when this process runs
        them: the map's Obs, fresh worker-side state, and the scope."""
        payloads = [self.payloads[index] for index in indices]
        with in_parent(self.obs), (
            nullcontext() if self.scope is None else self.scope(payloads)
        ):
            yield

    def _run_serial(self) -> None:
        # In-process execution cannot be preempted, so ``timeout_s`` is
        # not enforced here -- timeouts need a worker pool to cancel.
        with self._in_process(self.todo):
            for index in self.todo:
                with maybe_span(self.obs, self.stage, index=index):
                    self._run_one_serially(index, first_attempt=1)

    def _rerun_in_parent(self, index: int, attempt: int) -> None:
        """Re-run a task whose worker died, in this process, charged
        one more attempt."""
        with self._in_process([index]):
            self._run_one_serially(index, first_attempt=attempt + 1)

    def _run_one_serially(self, index: int, first_attempt: int) -> None:
        attempt = first_attempt
        while True:
            try:
                value = _policy_task((
                    self.fn,
                    self.payloads[index],
                    self.stage,
                    index,
                    attempt,
                    self.policy.fault_plan,
                ))
            except Exception as exc:
                if self._handle_error(index, attempt, exc):
                    attempt += 1
                    continue
                return
            self._success(index, value)
            return

    def _run_parallel(self) -> None:
        from concurrent.futures import (
            FIRST_COMPLETED,
            BrokenExecutor,
            ProcessPoolExecutor,
            wait,
        )

        pending: deque = deque((i, 1) for i in self.todo)
        inflight: dict = {}  # future -> (index, attempt, submitted_at)
        pool = None
        try:
            while pending or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=self.jobs, initializer=_init_worker
                    )
                # Windowed submission: at most ``jobs`` tasks in flight,
                # so a submitted task starts (nearly) immediately and
                # submission-relative deadlines track execution time.
                while pending and len(inflight) < self.jobs:
                    index, attempt = pending.popleft()
                    wrapped = (
                        self.fn,
                        self.payloads[index],
                        self.stage,
                        index,
                        attempt,
                        self.policy.fault_plan,
                    )
                    try:
                        fut = pool.submit(_policy_task, wrapped)
                    except BrokenExecutor:
                        pending.appendleft((index, attempt))
                        pool = self._recover_broken_pool(
                            pool, inflight, pending
                        )
                        break
                    inflight[fut] = (index, attempt, time.monotonic())
                if not inflight:
                    continue
                timeout = self._next_deadline(inflight)
                done, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    pool = self._expire_overdue(pool, inflight, pending)
                    continue
                broken = False
                for fut in done:
                    index, attempt, _ = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenExecutor:
                        broken = True
                        # The parent re-runs this task itself: a task
                        # that kills every worker it lands on must not
                        # kill pool after pool.
                        self._rerun_in_parent(index, attempt)
                    except Exception as exc:
                        if self._handle_error(index, attempt, exc):
                            pending.append((index, attempt + 1))
                    else:
                        self._success(index, value)
                if broken:
                    pool = self._recover_broken_pool(
                        pool, inflight, pending
                    )
        except BaseException:
            # A hung or still-running task must not hold the error up.
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        if pool is not None:
            # Every task is done: join the workers, so none is left for
            # interpreter exit to reap.
            pool.shutdown()

    def _next_deadline(self, inflight: dict) -> float | None:
        """Seconds until the earliest in-flight task goes overdue."""
        if self.policy.timeout_s is None:
            return None
        now = time.monotonic()
        return max(
            0.0,
            min(
                submitted + self.policy.timeout_s - now
                for _, _, submitted in inflight.values()
            ),
        )

    def _expire_overdue(self, pool, inflight: dict, pending: deque):
        """Cancel tasks past their wall-clock budget.

        A running task can only be cancelled by tearing its worker
        down, and the executor cannot kill one worker selectively --
        so the pool is rebuilt: overdue tasks go through the error
        policy, in-flight innocents are re-queued without being
        charged an attempt.
        """
        now = time.monotonic()
        overdue = [
            (fut, info)
            for fut, info in inflight.items()
            if now >= info[2] + self.policy.timeout_s
        ]
        if not overdue:
            return pool  # spurious wakeup; deadlines not reached yet
        for fut, (index, attempt, _) in overdue:
            del inflight[fut]
            self._count("timeouts")
            exc = TaskTimeout(
                f"{self.stage}[{index}] exceeded "
                f"{self.policy.timeout_s:g}s wall clock"
            )
            if self._handle_error(index, attempt, exc):
                pending.append((index, attempt + 1))
        for fut, (index, attempt, _) in list(inflight.items()):
            if fut.done() and fut.exception() is None:
                self._success(index, fut.result())
            else:
                pending.append((index, attempt))
        inflight.clear()
        self._count("pool_rebuilds")
        pool.shutdown(wait=False, cancel_futures=True)
        return None

    def _recover_broken_pool(self, pool, inflight: dict, pending: deque):
        """BrokenProcessPool: harvest survivors, re-run the rest serially.

        Futures that completed before the crash keep their results; the
        tasks that were in flight when the pool died are re-run in the
        parent (serially, charged one attempt -- one of them likely
        killed the worker, and the parent must survive running it).
        """
        self._count("pool_rebuilds")
        for fut, (index, attempt, _) in list(inflight.items()):
            if fut.done() and fut.exception() is None:
                self._success(index, fut.result())
            else:
                self._rerun_in_parent(index, attempt)
        inflight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return None
