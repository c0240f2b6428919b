"""LLC study runner: executes app x configuration and aggregates results.

Produces the data behind paper Figures 4(a), 4(b), 5(a), and 5(b): IPC
and average read latency, normalized execution-cycle breakdowns,
memory-hierarchy power breakdowns, and normalized system energy-delay.

A study given a record store (``run_study(cache=)``, ``repro study
--cache``) keeps each finished cell there as one JSON record, so a
rerun against the same store runs only the cells it does not hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from functools import partial

import repro.sim
from repro.core import parallel, solvecache
from repro.core.resilience import ResiliencePolicy, TaskFailure
from repro.obs import Obs, maybe_span
from repro.power.hierarchy import PowerBreakdown, hierarchy_power
from repro.power.system import SystemPower, scaled_core_power
from repro.sim.stats import AccessCounters, CycleBreakdown, SimStats
from repro.sim.system import run_workload
from repro.store import open_store
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

#: Layout version of a stored study cell: bump on any change to the
#: record or its key.  :func:`study_version` folds in both models'.
STUDY_VERSION = "repro-study-v1"


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


# --------------------------------------------------------------------- #
# Stored cells


def study_version() -> str:
    """The version a stored cell is stamped with: the record layout,
    the solver's ``CACHE_VERSION`` and the simulator's ``SIM_VERSION``,
    so a change to either model makes every stored cell a miss.  Read
    at call time, not import time."""
    return (f"{STUDY_VERSION}+{solvecache.CACHE_VERSION}"
            f"+{repro.sim.SIM_VERSION}")


def cell_key(profile: WorkloadProfile, config_name: str, source: str,
             scale: int, seed: int) -> str:
    """Content hash of one cell: sha256 of the canonical JSON of what
    the simulation depends on (numbers normalized as in
    :func:`~repro.core.solvecache.solve_key`).  The cachedb serves
    bit-identical solves, so it is not part of a cell's identity."""
    import hashlib  # OpenSSL: loaded only by a study that stores cells

    payload = solvecache._normalize_numbers({
        "profile": asdict(profile),
        "config": config_name,
        "source": source,
        "scale": scale,
        "seed": seed,
    })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_from_record(record: dict) -> RunResult:
    """Rebuild the :class:`RunResult` that ``asdict`` stored, through
    the dataclasses' own constructors (JSON floats are shortest-repr,
    so every number comes back bit-exact)."""
    stats = record["stats"]
    power = PowerBreakdown(**record["power"])
    return RunResult(
        app=record["app"],
        config=record["config"],
        stats=SimStats(**{
            **stats,
            "breakdown": CycleBreakdown(**stats["breakdown"]),
            "counters": AccessCounters(**stats["counters"]),
        }),
        power=power,
        system=SystemPower(**{**record["system"],
                              "memory_hierarchy": power}),
    )


def _decodes(record: dict) -> bool:
    """Store validator: a record that does not rebuild a RunResult is
    tombstoned, and its cell runs again."""
    try:
        cell_from_record(record)
    except (KeyError, TypeError, ValueError):
        return False
    return True


def _run_one_task(payload: tuple) -> RunResult:
    """Worker task: one (application, configuration) cell of the matrix.

    Simulation is fully seeded, so the result is identical no matter
    which process runs the cell.  ``cachedb_path`` travels as a path
    (readers are not picklable) and is opened once per process through
    the reader memo.  With a ``checkpoint`` of ``(store url, version,
    key)`` the task puts its finished cell into the store, flushed and
    closed before it returns, so a killed run loses only the cells in
    flight.
    """
    (profile, config_name, source, scale, seed, cachedb_path,
     checkpoint) = payload
    cachedb = None
    if cachedb_path is not None:
        from repro.cachedb import open_cachedb

        cachedb = open_cachedb(cachedb_path)
    result = run_one(
        profile,
        config_name,
        source=source,
        scale=scale,
        seed=seed,
        cachedb=cachedb,
    )
    if checkpoint is not None:
        url, version, key = checkpoint
        store = open_store(url, version=version)
        try:
            store.put(key, asdict(result))
        finally:
            store.close()
    return result


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
    cache=None,
    cachedb=None,
) -> StudyResult:
    """Run the full study matrix.

    With ``source="cacti"`` each process solves Table 3 once (the
    memo of :func:`~repro.study.table3.solve_table3`) and builds every
    cell's configuration and energy model from it.  ``jobs > 1`` runs the
    app x config cells concurrently in worker processes; every cell's
    simulation is seeded, so the matrix is identical at any job count.
    ``obs`` traces the matrix (one ``study.cell`` span per cell run
    serially, with the cell's ``index`` in the map of cells run; one
    enclosing span when parallel; none for restored cells), counts the
    cells run as ``study.cells`` and the restored ones as
    ``study.cells_restored``, and sums every finished cell's simulator
    counters into ``sim.*`` counters (:func:`publish_sim_counters`).

    ``cache`` (a record store path or ``sqlite:`` URL, see
    :mod:`repro.store`) checkpoints the matrix: every cell it holds at
    :func:`study_version` is restored without running, only the rest
    are mapped, and each of those puts its record as it finishes, so
    an interrupted matrix rerun against the same store runs only the
    unfinished cells.  ``resilience`` sets the error policy: under
    ``on_error="skip"`` failed cells land in ``StudyResult.failed``
    (their ``index`` is the cell's position in the full matrix) instead
    of aborting the run; a ``FaultPlan`` counts the cells mapped.
    ``obs`` counts the ``resilience.*`` events (failures, pool
    rebuilds).  ``cachedb`` (a cachedb path) serves each worker's
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
    cells = [(profile, config_name)
             for profile in profiles for config_name in configs]
    outcomes: list = [None] * len(cells)
    checkpoints = [None] * len(cells)
    if cache is not None:
        store = open_store(cache, version=study_version(),
                           validate=_decodes)
        try:
            for i, (profile, config_name) in enumerate(cells):
                key = cell_key(profile, config_name, source, scale, seed)
                record = store.get(key)
                if record is not None:
                    outcomes[i] = cell_from_record(record)
                else:
                    checkpoints[i] = (store.url, store.version, key)
        finally:
            store.close()
    todo = [i for i, outcome in enumerate(outcomes) if outcome is None]
    payloads = [
        (*cells[i], source, scale, seed, cachedb_path, checkpoints[i])
        for i in todo
    ]
    jobs = parallel.resolve_jobs(jobs)
    with maybe_span(
        obs,
        "study",
        apps=len(profiles),
        configs=len(configs),
        cells=len(cells),
        jobs=jobs,
    ):
        ran = parallel.parallel_map(
            _run_one_task,
            payloads,
            jobs,
            obs=obs,
            span_name="study.cell",
            resilience=resilience,
        )
    for i, outcome in zip(todo, ran):
        if isinstance(outcome, TaskFailure):
            outcome = replace(outcome, index=i)
        outcomes[i] = outcome
    if obs is not None:
        obs.inc("study.cells", len(todo))
        if len(todo) < len(cells):
            obs.inc("study.cells_restored", len(cells) - len(todo))
    results = {}
    failures = []
    for (profile, config_name), outcome in zip(cells, outcomes):
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
