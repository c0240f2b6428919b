"""Public CACTI-D solve API.

Entry points:

* :func:`solve` -- solve a cache or plain memory described by a
  :class:`~repro.core.config.MemorySpec`; caches get a tag array solved
  alongside the data array and composed per the access mode.
* :func:`solve_batch` -- solve many independent specs, optionally
  across worker processes, sharing one persistent solve cache.
* :func:`solve_main_memory` -- solve a commodity main-memory DRAM chip
  described by a :class:`~repro.array.mainmem.MainMemorySpec`, returning
  the datasheet-style timing interface and per-command energies.
* :class:`CactiD` -- a small facade caching the technology object across
  solves at one node.

One solve runs in-process: its candidate sweep is vectorized and takes
milliseconds.  Parallelism lives at the batch level: :func:`solve_batch`
takes ``jobs`` -- ``1`` (the default) solves every spec in this
process on the caller's caches, ``N > 1`` fans specs out over ``N``
worker processes, and ``<= 0`` or ``"auto"`` means all available
cores; a batch never starts more workers than it has specs.  Every
job count runs the same batch path, and results are bit-identical at
any job count -- parallelism only changes wall time.

A batch's checkpoint is its solve store: a rerun against the same
``solve_cache`` solves only the specs it lacks, so the batch entry
points refuse a journal-bearing policy.

Telemetry has one sink: every entry point takes an optional ``obs``
(:class:`~repro.obs.Obs`), worker payloads merge into it through
:meth:`~repro.obs.Obs.absorb_worker`, and
``SweepStats(obs.metrics)`` reads the sweep counters back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.array.mainmem import (
    MainMemoryEnergies,
    MainMemorySpec,
    MainMemoryTiming,
    derive_energies,
    derive_timing,
)
from repro.array.organization import ArrayMetrics, ArraySpec, EvalCache
from repro.core.config import (
    DENSITY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core import parallel
from repro.core.optimizer import SweepStats, optimize
from repro.core.resilience import ResiliencePolicy, TaskFailure
from repro.core.results import Solution
from repro.core.solvecache import SolveCache, account_store as _account_store
from repro.obs import Obs, maybe_span
from repro.obs import phase as obs_phase
from repro.tech.nodes import Technology, technology


#: SEC-DED ECC width: 8 check bits per 64 data bits.
_ECC_FACTOR_NUM, _ECC_FACTOR_DEN = 9, 8


def data_array_spec(spec: MemorySpec) -> ArraySpec:
    """The low-level data-array specification of a memory spec.

    With ``ecc`` enabled the array stores and moves 72 bits per 64 data
    bits (SEC-DED); tags are assumed parity-protected and unchanged.
    """
    capacity_bits = spec.capacity_bytes * 8
    output_bits = spec.block_bytes * 8
    if spec.ecc:
        capacity_bits = capacity_bits * _ECC_FACTOR_NUM // _ECC_FACTOR_DEN
        output_bits = output_bits * _ECC_FACTOR_NUM // _ECC_FACTOR_DEN
    return ArraySpec(
        capacity_bits=capacity_bits,
        output_bits=output_bits,
        assoc=spec.associativity or 1,
        nbanks=spec.nbanks,
        cell_tech=spec.cell_tech,
        periph_device_type=spec.periphery,
        sleep_transistors=spec.sleep_transistors,
    )


def tag_array_spec(spec: MemorySpec) -> ArraySpec:
    """The low-level tag-array specification of a cache spec."""
    if not spec.is_cache:
        raise ValueError("plain memories have no tag array")
    ways = spec.associativity or 1
    tag_bits = spec.tag_bits
    return ArraySpec(
        capacity_bits=spec.sets * ways * tag_bits,
        output_bits=ways * tag_bits,
        assoc=1,
        nbanks=spec.nbanks,
        cell_tech=spec.tag_technology,
        periph_device_type=spec.periphery,
        sleep_transistors=spec.sleep_transistors,
    )


def _sweeps(specs) -> list[tuple[Technology, ArraySpec]]:
    """``(tech, array spec)`` of every array sweep solving ``specs``
    runs: each spec's data array, and its tag array if it is a cache.

    A spec whose arrays cannot be derived is left out; its own solve
    reports why.
    """
    sweeps = []
    for spec in specs:
        try:
            tech = technology(spec.node_nm)
            sweeps.append((tech, data_array_spec(spec)))
            if spec.is_cache:
                sweeps.append((tech, tag_array_spec(spec)))
        except ValueError:
            continue
    return sweeps


def solve(
    spec: MemorySpec,
    target: OptimizationTarget | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    obs: Obs | None = None,
    cachedb=None,
) -> Solution:
    """Solve ``spec``, returning the optimizer's best design point.

    ``eval_cache`` shares survivor batches and subarray terms across
    sweeps and solves (a fresh one spanning the data and tag sweeps is
    created when omitted); ``solve_cache`` short-circuits whole repeated
    solves from disk (flushed once at the solve boundary); ``obs`` counts
    the sweep (read it through :class:`~repro.core.optimizer.SweepStats`)
    and, when it traces, records a ``solve`` span with nested data/tag
    array sweeps.  ``cachedb`` (a
    :class:`~repro.cachedb.CacheDB`) is consulted first: an exact
    precomputed hit -- bit-identical to solving live -- returns in
    microseconds, anything else falls through to the solver.  None of
    them changes the returned numbers.

    The data and tag sweeps run in one
    :meth:`~repro.array.organization.EvalCache.batch` scope, so the
    first of them to run builds the subarray terms of both.
    """
    target = target or OptimizationTarget()
    if cachedb is not None:
        precomputed = cachedb.lookup_exact(spec, target, obs=obs)
        if precomputed is not None:
            return precomputed
    tech = technology(spec.node_nm)
    if eval_cache is None:
        eval_cache = EvalCache()
    with maybe_span(
        obs,
        "solve",
        capacity_bytes=spec.capacity_bytes,
        cell_tech=spec.cell_tech.value,
        node_nm=spec.node_nm,
        kind="cache" if spec.is_cache else "ram",
    ):
        # Hold the solve cache open so the data and tag sweeps flush
        # once, at this solve boundary, not once per optimize.
        with solve_cache if solve_cache is not None else nullcontext(), \
                eval_cache.batch(_sweeps([spec])):
            with maybe_span(obs, "data_array"):
                data = optimize(
                    tech,
                    data_array_spec(spec),
                    target,
                    eval_cache=eval_cache,
                    solve_cache=solve_cache,
                    obs=obs,
                )
            tag = None
            if spec.is_cache:
                with maybe_span(obs, "tag_array"):
                    tag = optimize(
                        tech,
                        tag_array_spec(spec),
                        target,
                        eval_cache=eval_cache,
                        solve_cache=solve_cache,
                        obs=obs,
                    )
        # The boundary flush just ran (unless an enclosing batch defers
        # it further); drain its store events into the run's sink.
        _account_store(solve_cache, obs)
    return Solution(spec=spec, data=data, tag=tag)


class BatchOutcome(list):
    """A ``list`` of solutions that also carries partial-failure facts.

    What :func:`solve_batch` returns at every job count.  Behaves
    exactly like a plain list (indexing, iteration, equality), with one
    addition: under a skip/retry resilience policy, slots whose solves
    failed terminally hold ``None`` and the corresponding
    :class:`~repro.core.resilience.TaskFailure` records live in
    ``failed`` (empty on a fully successful batch).
    """

    def __init__(self, solutions, failed=()):
        super().__init__(solutions)
        self.failed: tuple[TaskFailure, ...] = tuple(failed)


def _solve_task(payload: tuple, infeasible=()) -> tuple:
    """Task: one full spec solve, returning ``(solution, obs payload)``.

    A solve raising one of the ``infeasible`` exception types yields a
    None solution.  :mod:`~repro.core.parallel` supplies the caches and
    Obs: the caller's in the parent (no payload ships), worker-local
    ones in a worker (one SolveCache per store URL for the worker's
    life, so its records load once per worker, not once per task).
    """
    spec, target, cache_url, kind = payload
    obs = parallel.worker_obs(kind)
    try:
        solution = solve(
            spec,
            target,
            eval_cache=parallel.worker_eval_cache(),
            solve_cache=parallel.worker_solve_cache(cache_url),
            obs=obs,
        )
    except infeasible:
        solution = None
    return solution, parallel.obs_payload(obs)


def refuse_journal(resilience: ResiliencePolicy | None) -> None:
    """Raise ValueError when ``resilience`` carries a journal.

    A solve's checkpoint is its solve store: rerun against the same
    ``solve_cache=`` (a cachedb build: into the same path) to resume.
    """
    if resilience is not None and resilience.journal is not None:
        raise ValueError(
            "solves take no journal: their checkpoint is the solve "
            "store, so rerun against the same solve_cache= to resume"
        )


def _run_batch(
    task, stage, specs, targets, *, eval_cache, solve_cache, jobs, obs,
    resilience,
) -> BatchOutcome:
    """The one batch path of :func:`solve_batch` and sensitivity sweeps.

    ``task`` (:func:`_solve_task` or a wrapper) runs once per spec with
    the same payload at every job count; ``stage`` names its spans and
    fault-plan stage.  Tasks run in this process solve on
    ``eval_cache`` (fresh when None) and the ``solve_cache`` instance,
    held open so the store flushes once per batch, in one batch scope
    on the EvalCache.  Returns the solutions in spec order (None at
    failed slots) with the failures.
    """
    refuse_journal(resilience)
    if eval_cache is None:
        eval_cache = EvalCache()

    @contextmanager
    def in_process(payloads):
        with parallel.in_parent(obs, eval_cache, solve_cache), \
                solve_cache if solve_cache is not None else nullcontext(), \
                eval_cache.batch(_sweeps(spec for spec, *_ in payloads)):
            yield

    cache_url = solve_cache.url if solve_cache is not None else None
    kind = parallel.obs_kind(obs)
    # The map runs in this process unless it has two or more specs.
    pooled = min(jobs, len(specs)) > 1
    stats = SweepStats(obs.metrics) if obs is not None else None
    worker_wall = stats.worker_time_s if stats is not None else 0.0
    t0 = time.perf_counter()
    outcomes = parallel.parallel_map(
        task,
        [(spec, tgt, cache_url, kind) for spec, tgt in zip(specs, targets)],
        jobs,
        obs=obs,
        span_name=stage,
        resilience=resilience,
        scope=in_process,
    )
    solutions = []
    failures = []
    for outcome in outcomes:
        if isinstance(outcome, TaskFailure):
            failures.append(outcome)
            solutions.append(None)
            continue
        solution, payload = outcome
        solutions.append(solution)
        if obs is not None:
            obs.absorb_worker(payload)
    # Drain the batch-boundary flush into the run's sink; worker
    # counter deltas arrived in their payloads, so this refreshes the
    # parent-side records/bytes gauges.
    _account_store(solve_cache, obs)
    if obs is not None and pooled:
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            obs.gauge(
                "parallel.worker_utilization",
                (stats.worker_time_s - worker_wall) / (elapsed * jobs),
            )
    return BatchOutcome(solutions, failures)


def solve_batch(
    specs: Sequence[MemorySpec],
    target: OptimizationTarget | Sequence[OptimizationTarget] | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    jobs: int | str = 1,
    obs: Obs | None = None,
    resilience: ResiliencePolicy | None = None,
) -> BatchOutcome:
    """Solve independent specs, returning solutions in spec order.

    ``target`` is one target for the whole batch or a sequence matching
    ``specs``.  With ``jobs > 1`` the specs are solved concurrently in
    worker processes.  Specs solved in this process (all of them at
    ``jobs=1``) use the caller's ``eval_cache`` -- a fresh one per call
    when omitted -- and the caller's ``solve_cache`` instance, held
    open across the batch so the store is rewritten once per batch,
    not once per record.  Only specs solved in workers use worker-local
    caches: one EvalCache per worker, and the ``solve_cache`` store
    opened by URL once per worker (atomic merge-on-save writes make
    concurrent writers safe).  Workers ship their metrics -- and spans,
    when ``obs`` traces -- home for absorption into ``obs``.  The
    returned solutions are bit-identical at any job count.

    ``resilience`` (default: raise the first error) sets the fault
    tolerance: failed solves are retried/skipped/raised per the policy,
    and in skip/retry mode the returned :class:`BatchOutcome` carries
    ``None`` at failed slots plus the failures in ``.failed``.  A
    policy carrying a journal raises ValueError: the checkpoint of a
    batch is ``solve_cache``, and a rerun against it re-solves only the
    specs it lacks.
    """
    specs = list(specs)
    if target is None or isinstance(target, OptimizationTarget):
        targets = [target] * len(specs)
    else:
        targets = list(target)
        if len(targets) != len(specs):
            raise ValueError(
                f"{len(specs)} specs but {len(targets)} targets"
            )
    jobs = parallel.resolve_jobs(jobs)
    with obs_phase("batch", obs, specs=len(specs), jobs=jobs):
        return _run_batch(
            _solve_task,
            "batch.solve",
            specs,
            targets,
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            jobs=jobs,
            obs=obs,
            resilience=resilience,
        )


@dataclass(frozen=True)
class MainMemorySolution:
    """A solved main-memory DRAM chip: array + interface views."""

    spec: MainMemorySpec
    metrics: ArrayMetrics
    timing: MainMemoryTiming
    energies: MainMemoryEnergies

    @property
    def area_mm2(self) -> float:
        return self.metrics.area * 1e6

    @property
    def area_efficiency(self) -> float:
        return self.metrics.area_efficiency

    def summary(self) -> str:
        t, e = self.timing, self.energies
        gb = self.spec.capacity_bits / 2**30
        lines = [
            f"capacity        : {gb:.0f} Gb x{self.spec.data_pins}, "
            f"{self.spec.nbanks} banks, BL{self.spec.burst_length}",
            f"area efficiency : {self.area_efficiency * 100:.0f}%",
            f"tRCD            : {t.t_rcd * 1e9:.1f} ns",
            f"CAS latency     : {t.t_cas * 1e9:.1f} ns",
            f"tRP             : {t.t_rp * 1e9:.1f} ns",
            f"tRC             : {t.t_rc * 1e9:.1f} ns",
            f"tRRD            : {t.t_rrd * 1e9:.1f} ns",
            f"ACTIVATE energy : {e.e_activate * 1e9:.2f} nJ",
            f"READ energy     : {e.e_read * 1e9:.2f} nJ",
            f"WRITE energy    : {e.e_write * 1e9:.2f} nJ",
            f"refresh power   : {e.p_refresh * 1e3:.2f} mW",
            f"standby power   : {e.p_standby * 1e3:.2f} mW",
        ]
        return "\n".join(lines)

    def run_report(self) -> dict:
        """Machine-readable report of this solved chip.

        Plain JSON types only, so benchmark harnesses can serialize it
        and diff runs against recorded ``BENCH_*.json`` baselines.
        """
        t, e = self.timing, self.energies
        return {
            "kind": "main_memory",
            "spec": {
                "capacity_bits": self.spec.capacity_bits,
                "nbanks": self.spec.nbanks,
                "data_pins": self.spec.data_pins,
                "burst_length": self.spec.burst_length,
                "page_bits": self.spec.page_bits,
                "cell_tech": self.spec.cell_tech.value,
                "cell_traits": self.spec.cell_tech.traits.as_dict(),
            },
            "organization": {
                "ndwl": self.metrics.org.ndwl,
                "ndbl": self.metrics.org.ndbl,
                "nspd": self.metrics.org.nspd,
                "ndcm": self.metrics.org.ndcm,
                "ndsam": self.metrics.org.ndsam,
            },
            "timing_ns": {
                "t_rcd": t.t_rcd * 1e9,
                "t_cas": t.t_cas * 1e9,
                "t_rp": t.t_rp * 1e9,
                "t_ras": t.t_ras * 1e9,
                "t_rc": t.t_rc * 1e9,
                "t_rrd": t.t_rrd * 1e9,
            },
            "energy_nj": {
                "e_activate": e.e_activate * 1e9,
                "e_read": e.e_read * 1e9,
                "e_write": e.e_write * 1e9,
            },
            "power_mw": {
                "p_refresh": e.p_refresh * 1e3,
                "p_standby": e.p_standby * 1e3,
            },
            "area_mm2": self.area_mm2,
            "area_efficiency": self.area_efficiency,
        }


def solve_main_memory(
    spec: MainMemorySpec,
    node_nm: float,
    target: OptimizationTarget | None = None,
    clock_period: float = 0.0,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    obs: Obs | None = None,
) -> MainMemorySolution:
    """Solve a main-memory DRAM chip at ``node_nm``.

    Commodity parts default to the density-optimized preset because of the
    premium on price per bit (paper section 2.5).
    """
    target = target or DENSITY_OPTIMIZED
    tech = technology(node_nm)
    array_spec = spec.array_spec()
    with maybe_span(
        obs,
        "solve_main_memory",
        capacity_bits=spec.capacity_bits,
        node_nm=node_nm,
    ):
        metrics = optimize(
            tech,
            array_spec,
            target,
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            obs=obs,
        )
        with maybe_span(obs, "derive_interface"):
            timing = derive_timing(spec, metrics, clock_period)
            vdd_cell = tech.cell(
                array_spec.cell_tech, array_spec.periph_device_type
            ).vdd_cell
            energies = derive_energies(spec, metrics, vdd_cell)
    return MainMemorySolution(
        spec=spec, metrics=metrics, timing=timing, energies=energies
    )


class CactiD:
    """Facade for repeated solves at one technology node.

    Holds an :class:`~repro.array.organization.EvalCache` so circuit
    designs (subarrays, H-trees, repeated wires) are shared across every
    solve issued through the facade, and -- when ``cache_path`` is given
    -- a persistent :class:`~repro.core.solvecache.SolveCache` so whole
    repeated solves are served from disk across processes.  Every solve
    issued through the facade counts into ``obs`` -- a metrics-only
    ``Obs(trace=False)`` unless one is passed (pass ``Obs()`` to also
    record tracing spans) -- and :attr:`stats` reads the sweep counters
    back as a :class:`~repro.core.optimizer.SweepStats` view.

    ``cachedb`` -- a :class:`~repro.cachedb.CacheDB` or a cachedb
    path -- puts a precomputed design-space database in front of the
    solver: :meth:`solve` checks it for an exact (bit-identical) hit
    first; :meth:`solve_batch` does not consult it.  ``resilience`` -- a
    :class:`~repro.core.resilience.ResiliencePolicy` without a journal
    (``cache_path`` is the checkpoint) -- governs the facade's
    :meth:`solve_batch` calls.
    """

    def __init__(
        self,
        node_nm: float = 32.0,
        cache_path=None,
        obs: Obs | None = None,
        resilience: ResiliencePolicy | None = None,
        cachedb=None,
    ):
        self.node_nm = node_nm
        self.eval_cache = EvalCache()
        self.solve_cache = (
            SolveCache(cache_path) if cache_path is not None else None
        )
        self.obs = obs if obs is not None else Obs(trace=False)
        self.resilience = resilience
        if cachedb is not None and not hasattr(cachedb, "lookup_exact"):
            # A path: open it through the per-process reader memo.
            from repro.cachedb import open_cachedb

            cachedb = open_cachedb(cachedb)
        self.cachedb = cachedb

    @property
    def stats(self) -> SweepStats:
        """The facade's sweep counters, read from ``obs``."""
        return SweepStats(self.obs.metrics)

    @cached_property
    def technology(self) -> Technology:
        return technology(self.node_nm)

    def solve(
        self,
        spec: MemorySpec,
        target: OptimizationTarget | None = None,
    ) -> Solution:
        self._check_node(spec)
        return solve(
            spec,
            target,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            obs=self.obs,
            cachedb=self.cachedb,
        )

    def solve_batch(
        self,
        specs: Sequence[MemorySpec],
        target: (
            OptimizationTarget | Sequence[OptimizationTarget] | None
        ) = None,
        jobs: int | str = 1,
    ) -> BatchOutcome:
        """Solve many specs at this node, optionally across processes.

        Specs solved in this process (all of them at ``jobs=1``) use the
        facade's EvalCache and its SolveCache instance, which flushes
        once per batch; specs solved in workers use worker-local caches
        and share the facade's persistent store by URL.  Every solve's
        sweep counters land in ``self.obs`` (read them through
        ``self.stats``).
        """
        for spec in specs:
            self._check_node(spec)
        return solve_batch(
            specs,
            target,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            jobs=jobs,
            obs=self.obs,
            resilience=self.resilience,
        )

    def solve_main_memory(
        self,
        spec: MainMemorySpec,
        target: OptimizationTarget | None = None,
        clock_period: float = 0.0,
    ) -> MainMemorySolution:
        return solve_main_memory(
            spec,
            self.node_nm,
            target,
            clock_period,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            obs=self.obs,
        )

    def _check_node(self, spec: MemorySpec) -> None:
        if spec.node_nm != self.node_nm:
            raise ValueError(
                f"spec is at {spec.node_nm} nm, facade at {self.node_nm} nm"
            )
