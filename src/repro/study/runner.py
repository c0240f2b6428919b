"""LLC study runner: executes app x configuration and aggregates results.

Produces the data behind paper Figures 4(a), 4(b), 5(a), and 5(b): IPC
and average read latency, normalized execution-cycle breakdowns,
memory-hierarchy power breakdowns, and normalized system energy-delay.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import partial

from repro.core import parallel
from repro.core.resilience import (
    Journal,
    ResiliencePolicy,
    TaskFailure,
    task_key,
)
from repro.obs import Obs, maybe_span
from repro.power.hierarchy import PowerBreakdown, hierarchy_power
from repro.power.system import SystemPower, scaled_core_power
from repro.sim.stats import SimStats
from repro.sim.system import run_workload
from repro.study.table3 import (
    CONFIG_NAMES,
    CPU_HZ,
    build_energy_model,
    build_system_config,
    check_scale,
    check_source,
)
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.synthetic import WorkloadProfile, event_batches

#: Default capacity-scaling factor for tractable pure-Python runs.
DEFAULT_SCALE = 16


@dataclass(frozen=True)
class RunResult:
    """One (application, configuration) outcome."""

    app: str
    config: str
    stats: SimStats
    power: PowerBreakdown
    system: SystemPower

    @property
    def ipc(self) -> float:
        return self.stats.ipc


@dataclass(frozen=True)
class StudyResult:
    """The full app x config matrix.

    Under a skip :class:`~repro.core.resilience.ResiliencePolicy` the
    matrix may be partial: cells whose tasks failed are absent from
    ``results`` and recorded as
    :class:`~repro.core.resilience.TaskFailure` entries in ``failed``.
    """

    results: dict[tuple[str, str], RunResult]
    app_names: tuple[str, ...]
    failed: tuple[TaskFailure, ...] = ()

    def get(self, app: str, config: str) -> RunResult:
        return self.results[(app, config)]

    def normalized_cycles(self, app: str, config: str) -> float:
        """Execution cycles relative to the nol3 baseline (Figure 4b)."""
        base = self.get(app, "nol3").stats.cycles
        return self.get(app, config).stats.cycles / base

    def normalized_energy_delay(self, app: str, config: str) -> float:
        """System energy-delay relative to nol3 (Figure 5b)."""
        base = self.get(app, "nol3").system.energy_delay
        return self.get(app, config).system.energy_delay / base

    def mean_execution_reduction(self, config: str) -> float:
        """Average execution-time reduction vs nol3 across apps."""
        ratios = [
            self.normalized_cycles(app, config) for app in self.app_names
        ]
        return 1.0 - sum(ratios) / len(ratios)

    def mean_energy_delay_improvement(self, config: str) -> float:
        ratios = [
            self.normalized_energy_delay(app, config)
            for app in self.app_names
        ]
        return 1.0 - sum(ratios) / len(ratios)

    def mean_hierarchy_power_increase(self, config: str) -> float:
        """Average memory-hierarchy power increase vs nol3 (Figure 5a)."""
        increases = []
        for app in self.app_names:
            base = self.get(app, "nol3").power.total
            increases.append(self.get(app, config).power.total / base - 1.0)
        return sum(increases) / len(increases)


def run_one(
    profile: WorkloadProfile,
    config_name: str,
    source: str = "paper",
    scale: int = DEFAULT_SCALE,
    seed: int = 1234,
    cachedb=None,
) -> RunResult:
    """Simulate one application on one configuration.

    ``cachedb`` (a :class:`~repro.cachedb.CacheDB`) serves the
    ``source="cacti"`` solves from the precomputed database when they
    are on its grid.  The solved Table 3 is memoized per process, so a
    study matrix solves it once, not once per cell.
    """
    config = build_system_config(
        config_name, source=source, scale=scale, cachedb=cachedb
    )
    scaled_profile = profile.scaled(scale)
    stats = run_workload(
        config,
        partial(
            event_batches,
            scaled_profile,
            num_threads=config.num_threads,
            seed=seed,
        ),
    )
    duration = stats.cycles / CPU_HZ
    energy_model = build_energy_model(
        config_name, source=source, cachedb=cachedb
    )
    breakdown = hierarchy_power(energy_model, stats, duration)
    system = SystemPower(
        core=scaled_core_power(),
        memory_hierarchy=breakdown,
        execution_time=duration,
    )
    return RunResult(
        app=profile.name,
        config=config_name,
        stats=stats,
        power=breakdown,
        system=system,
    )


def publish_sim_counters(obs: Obs, stats: SimStats) -> None:
    """Add one cell's simulator event counts to ``sim.*`` counters: every
    :class:`~repro.sim.stats.AccessCounters` field, plus the barrier and
    lock wait cycles.  Published from the finished ``SimStats``, so the
    simulator's hot path carries no hooks and every job count reports
    the same totals."""
    for name, value in asdict(stats.counters).items():
        obs.inc(f"sim.{name}", value)
    obs.inc("sim.barrier_cycles", stats.breakdown.barrier)
    obs.inc("sim.lock_cycles", stats.breakdown.lock)


def _run_one_task(payload: tuple) -> RunResult:
    """Worker task: one (application, configuration) cell of the matrix.

    Simulation is fully seeded, so the result is identical no matter
    which process runs the cell.  ``cachedb_path`` travels as a path
    (readers are not picklable) and is opened once per process through
    the reader memo.
    """
    profile, config_name, source, scale, seed, cachedb_path = payload
    cachedb = None
    if cachedb_path is not None:
        from repro.cachedb import open_cachedb

        cachedb = open_cachedb(cachedb_path)
    return run_one(
        profile,
        config_name,
        source=source,
        scale=scale,
        seed=seed,
        cachedb=cachedb,
    )


def run_study(
    profiles: tuple[WorkloadProfile, ...] = NPB_PROFILES,
    configs: tuple[str, ...] = CONFIG_NAMES,
    source: str = "paper",
    scale: int = DEFAULT_SCALE,
    instructions_per_thread: int | None = None,
    seed: int = 1234,
    jobs: int | str = 1,
    obs: Obs | None = None,
    resilience: ResiliencePolicy | None = None,
    journal: Journal | None = None,
    cachedb=None,
) -> StudyResult:
    """Run the full study matrix.

    With ``source="cacti"`` each process solves Table 3 once (the
    memo of :func:`~repro.study.table3.solve_table3`) and builds every
    cell's configuration and energy model from it.  ``jobs > 1`` runs the
    app x config cells concurrently in worker processes; every cell's
    simulation is seeded, so the matrix is identical at any job count.
    ``obs`` traces the matrix (one ``study.cell`` span, with the cell's
    ``index``, per cell run serially; one enclosing span when parallel;
    none for cells restored from a journal), counts cells run, and sums
    every finished cell's simulator counters into ``sim.*`` counters
    (:func:`publish_sim_counters`).

    ``resilience`` sets the error policy: under ``on_error="skip"``
    failed cells land in ``StudyResult.failed`` instead of aborting
    the run.  ``journal`` checkpoints each completed cell, so an
    interrupted matrix resumed against the same journal re-runs only
    the unfinished cells; the caller opens and closes it.  ``obs``
    counts the ``resilience.*`` events (failures, pool rebuilds,
    journal restores).
    ``cachedb`` (a cachedb path) serves each worker's
    ``source="cacti"`` solves from the precomputed database.

    Duplicate profile names or repeated configuration names would
    silently overwrite each other's matrix cells, so both raise, as does
    a ``scale`` or ``instructions_per_thread`` below 1 or a ``source``
    other than ``"paper"`` and ``"cacti"`` (before any cell runs,
    whatever the policy).
    """
    check_scale(scale)
    check_source(source)
    if instructions_per_thread is not None:
        if instructions_per_thread < 1:
            raise ValueError(
                "instructions_per_thread must be at least 1, "
                f"got {instructions_per_thread}"
            )
        profiles = tuple(
            p.with_instructions(instructions_per_thread) for p in profiles
        )
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate profile names in study: {dupes}")
    if len(set(configs)) != len(configs):
        dupes = sorted({c for c in configs if tuple(configs).count(c) > 1})
        raise ValueError(f"duplicate configurations in study: {dupes}")
    cachedb_path = os.fspath(cachedb) if cachedb is not None else None
    payloads = [
        (profile, config_name, source, scale, seed, cachedb_path)
        for profile in profiles
        for config_name in configs
    ]
    jobs = parallel.resolve_jobs(jobs)
    # The cachedb serves bit-identical results, so it is not part of a
    # cell's identity: journals written without one resume runs that
    # use one, and vice versa.
    keys = None
    if journal is not None:
        keys = [
            task_key("study.cell", {
                "profile": profile,
                "config": config_name,
                "source": source,
                "scale": scale,
                "seed": seed,
            })
            for profile, config_name, source, scale, seed, _ in payloads
        ]
    with maybe_span(
        obs,
        "study",
        apps=len(profiles),
        configs=len(configs),
        cells=len(payloads),
        jobs=jobs,
    ):
        outcomes = parallel.parallel_map(
            _run_one_task,
            payloads,
            jobs,
            obs=obs,
            span_name="study.cell",
            resilience=resilience,
            journal=journal,
            keys=keys,
        )
    if obs is not None:
        obs.inc("study.cells", len(payloads))
    results = {}
    failures = []
    for (profile, config_name, *_), outcome in zip(payloads, outcomes):
        if isinstance(outcome, TaskFailure):
            failures.append(outcome)
            continue
        results[(profile.name, config_name)] = outcome
        if obs is not None:
            publish_sim_counters(obs, outcome.stats)
    return StudyResult(
        results=results,
        app_names=tuple(p.name for p in profiles),
        failed=tuple(failures),
    )
