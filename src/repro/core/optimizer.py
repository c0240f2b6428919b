"""Solution optimization (paper section 2.4).

CACTI 5 changed the optimization flow: rather than a single fixed figure
of merit, the tool first collects *all* feasible organizations, keeps the
ones whose area is within a user-supplied percentage of the most
area-efficient solution (max area constraint), narrows to those whose
access time is within a percentage of the fastest remaining solution (max
access time constraint), and finally ranks that subset by a normalized,
weighted combination of dynamic energy, leakage power, random cycle time,
and multisubbank interleave cycle time.

The sweep runs as one pipeline that changes none of those numbers:

* a structural pre-filter (:func:`~repro.array.kernels.survivor_batch`)
  rejects most candidate tuples from spec arithmetic alone, as one
  vectorized batch over the whole grid;
* the survivors are evaluated, constrained and ranked as arrays
  (:mod:`repro.array.kernels`), and every returned design is read from
  those arrays (:meth:`~repro.array.kernels.EvaluatedBatch.design`);
* an :class:`~repro.array.organization.EvalCache` shares survivor
  batches and subarray term rows across candidates and sweeps (and,
  via the :class:`~repro.core.cacti.CactiD` facade, across solves); in
  a batch scope it builds the subarray terms of every announced sweep
  in one pass per group;
* an optional persistent :class:`~repro.core.solvecache.SolveCache`
  short-circuits whole repeated solves from disk.

An optional :class:`~repro.obs.Obs` counts what each layer did so
speedups are measurable; :class:`SweepStats` reads those counts back.
"""

from __future__ import annotations

import time

from repro.array.organization import ArrayMetrics, ArraySpec, EvalCache
from repro.array import kernels
from repro.core.config import OptimizationTarget
from repro.core.solvecache import account_store as _account_store
from repro.obs import MetricsRegistry, Obs, maybe_span
from repro.obs import phase as obs_phase
from repro.tech.nodes import Technology


class NoFeasibleSolution(RuntimeError):
    """No partitioning tuple could realize the requested array."""


#: Each counter field of :class:`SweepStats` and the registry name it
#: reads.  ``wall_time_s`` is this process's optimizer wall time and
#: ``worker_time_s`` the workers' summed; ``prefiltered`` counts the
#: candidates the cheap structural pre-filter rejected.
SWEEP_METRICS = {
    "enumerated": "optimizer.enumerated",
    "prefiltered": "optimizer.prefiltered",
    "built": "optimizer.built",
    "infeasible_at_build": "optimizer.infeasible_at_build",
    "feasible": "optimizer.feasible",
    "subarray_hits": "eval_cache.subarray.hits",
    "subarray_misses": "eval_cache.subarray.misses",
    "solve_cache_hits": "solve_cache.hits",
    "solve_cache_misses": "solve_cache.misses",
    "store_flush_writes": "store.flush_writes",
    "pool_rebuilds": "resilience.pool_rebuilds",
    "tasks_failed": "resilience.tasks_failed",
    "wall_time_s": "optimizer.wall_s",
    "worker_time_s": "worker.optimizer.wall_s",
    "workers_absorbed": "parallel.workers_absorbed",
}

#: The order phases run in a solve, which is the order they print.
_PHASE_ORDER = ("prefilter", "build", "rank", "batch")


class SweepStats:
    """Read-only view of the sweep counters in an Obs metrics registry.

    Every field reads one registry name (:data:`SWEEP_METRICS`); the
    phase timers read the ``phase.<name>_s`` histogram sums and the
    worker phase timers the ``worker.phase.<name>_s`` ones, which
    :meth:`repro.obs.Obs.absorb_worker` keeps apart so the parent's
    phase report stays wall-clock true (concurrent workers sum to more
    CPU than wall time).  The view never creates an instrument.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics

    def __getattr__(self, field_name: str):
        try:
            name = SWEEP_METRICS[field_name]
        except KeyError:
            raise AttributeError(field_name) from None
        counter = self.metrics.counters.get(name)
        if counter is not None:
            return counter.value
        return 0.0 if name.endswith("_s") else 0

    def _phases(self, prefix: str) -> dict:
        found = {
            name[len(prefix):-len("_s")]: h.total
            for name, h in self.metrics.histograms.items()
            if name.startswith(prefix) and name.endswith("_s")
        }
        ordered = {name: found.pop(name)
                   for name in _PHASE_ORDER if name in found}
        return {**ordered, **found}

    @property
    def phase_times(self) -> dict:
        """Wall time per phase run in this process."""
        return self._phases("phase.")

    @property
    def worker_phase_times(self) -> dict:
        """CPU time per phase summed across absorbed worker payloads."""
        return self._phases("worker.phase.")

    @property
    def prefilter_rate(self) -> float:
        return self.prefiltered / self.enumerated if self.enumerated else 0.0

    @property
    def subarray_hit_rate(self) -> float:
        total = self.subarray_hits + self.subarray_misses
        return self.subarray_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "prefiltered": self.prefiltered,
            "built": self.built,
            "infeasible_at_build": self.infeasible_at_build,
            "feasible": self.feasible,
            "subarray_hits": self.subarray_hits,
            "subarray_misses": self.subarray_misses,
            "solve_cache_hits": self.solve_cache_hits,
            "solve_cache_misses": self.solve_cache_misses,
            "store_flush_writes": self.store_flush_writes,
            "pool_rebuilds": self.pool_rebuilds,
            "tasks_failed": self.tasks_failed,
            "prefilter_rate": self.prefilter_rate,
            "subarray_hit_rate": self.subarray_hit_rate,
            "wall_time_s": self.wall_time_s,
            "worker_time_s": self.worker_time_s,
            "workers_absorbed": self.workers_absorbed,
            "phase_times": self.phase_times,
            "worker_phase_times": self.worker_phase_times,
        }

    def summary(self) -> str:
        """Human-readable multi-line report, printable from the CLI."""
        lines = [
            f"candidates enumerated : {self.enumerated}",
            f"pre-filtered (cheap)  : {self.prefiltered} "
            f"({self.prefilter_rate * 100:.1f}%)",
            f"built                 : {self.built}",
            f"infeasible at build   : {self.infeasible_at_build}",
            f"feasible designs      : {self.feasible}",
            f"subarray cache        : {self.subarray_hits} hits / "
            f"{self.subarray_misses} misses "
            f"({self.subarray_hit_rate * 100:.1f}%)",
            f"solve cache           : {self.solve_cache_hits} hits / "
            f"{self.solve_cache_misses} misses",
            f"wall time             : {self.wall_time_s * 1e3:.1f} ms",
        ]
        if self.store_flush_writes:
            lines.insert(
                -1,
                f"solve store           : {self.store_flush_writes} flush "
                "writes",
            )
        if self.tasks_failed or self.pool_rebuilds:
            lines.append(
                f"resilience            : {self.tasks_failed} failed, "
                f"{self.pool_rebuilds} pool rebuilds"
            )
        if self.workers_absorbed:
            lines.append(
                f"workers               : {self.workers_absorbed} payloads, "
                f"{self.worker_time_s * 1e3:.1f} ms worker wall time"
            )
        for name, seconds in self.phase_times.items():
            lines.append(f"phase {name:<16}: {seconds * 1e3:.1f} ms")
        for name, seconds in self.worker_phase_times.items():
            lines.append(
                f"worker phase {name:<9}: {seconds * 1e3:.1f} ms (CPU)"
            )
        return "\n".join(lines)


def _count(obs: Obs | None, **deltas: int) -> None:
    """Add counter deltas, named by :class:`SweepStats` field, to ``obs``."""
    if obs is not None:
        for field_name, delta in deltas.items():
            obs.inc(SWEEP_METRICS[field_name], delta)


def _no_solution_message(spec: ArraySpec) -> str:
    return (
        f"no feasible organization for {spec.capacity_bits} bits of "
        f"{spec.cell_tech.value} in {spec.nbanks} bank(s)"
    )


def _evaluated(
    tech: Technology,
    spec: ArraySpec,
    cache: EvalCache,
    obs: Obs | None,
) -> kernels.EvaluatedBatch:
    """Pre-filter the grid into a survivor batch and evaluate every
    survivor as arrays (:func:`~repro.array.kernels.evaluate_batch`).

    Counts candidates and the subarray cache's lookups, one per
    survivor, so ``subarray_hits + subarray_misses == built`` holds.
    Raises :class:`NoFeasibleSolution` when no survivor is buildable.
    """
    with obs_phase("prefilter", obs):
        batch = cache.survivors(spec, kernels.survivor_batch)
    hits, misses = cache.subarray_hits, cache.subarray_misses
    with obs_phase("build", obs, candidates=batch.size):
        ev = kernels.evaluate_batch(tech, spec, batch, cache)
    _count(
        obs,
        enumerated=batch.enumerated,
        prefiltered=batch.enumerated - batch.size,
        built=batch.size,
        infeasible_at_build=ev.n_infeasible,
        feasible=ev.size,
        subarray_hits=cache.subarray_hits - hits,
        subarray_misses=cache.subarray_misses - misses,
    )
    if ev.size == 0:
        raise NoFeasibleSolution(_no_solution_message(spec))
    return ev


def feasible_designs(
    tech: Technology,
    spec: ArraySpec,
    *,
    cache: EvalCache | None = None,
    obs: Obs | None = None,
) -> list[ArrayMetrics]:
    """Every feasible design of ``spec``, in enumeration order.

    The full solution cloud the paper's Figure 1 bubbles plot.  Every
    buildable pre-filter survivor is read from the evaluated batch
    (:meth:`~repro.array.kernels.EvaluatedBatch.design`); ``cache``
    shares survivor batches and subarray terms across sweeps, and
    ``obs`` counts candidates, cache lookups and the prefilter/build
    phases.  Neither changes the returned designs.
    """
    if cache is None:
        cache = EvalCache()
    ev = _evaluated(tech, spec, cache, obs)
    return [ev.design(i) for i in range(ev.size)]


def filter_constraints(
    designs: list[ArrayMetrics], target: OptimizationTarget
) -> list[ArrayMetrics]:
    """Apply the staged max-area then max-access-time filters."""
    if not designs:
        raise NoFeasibleSolution(
            "no designs to filter: the feasible set is empty"
        )
    best_area = min(d.area for d in designs)
    within_area = [
        d for d in designs
        if d.area <= best_area * (1.0 + target.max_area_fraction)
    ]
    best_time = min(d.t_access for d in within_area)
    return [
        d for d in within_area
        if d.t_access <= best_time * (1.0 + target.max_acctime_fraction)
    ]


def rank_floors(
    designs: list[ArrayMetrics],
) -> tuple[float, float, float, float]:
    """Normalization floors for :func:`rank`, in one pass over the set.

    Returns ``(min_dynamic, min_leakage, min_cycle, min_interleave)``
    with non-positive minima clamped to ``1e-30`` (the paper's guard
    against degenerate zero-energy normalizers).
    """
    if not designs:
        raise NoFeasibleSolution(
            "no designs to rank: the constrained set is empty"
        )
    min_dyn = min_leak = min_cycle = min_interleave = float("inf")
    for d in designs:
        if d.e_read_access < min_dyn:
            min_dyn = d.e_read_access
        leak = d.p_leakage + d.p_refresh
        if leak < min_leak:
            min_leak = leak
        if d.t_random_cycle < min_cycle:
            min_cycle = d.t_random_cycle
        if d.t_interleave < min_interleave:
            min_interleave = d.t_interleave

    def clamp(value: float) -> float:
        return value if value > 0.0 else 1e-30

    return (
        clamp(min_dyn),
        clamp(min_leak),
        clamp(min_cycle),
        clamp(min_interleave),
    )


def rank(
    designs: list[ArrayMetrics], target: OptimizationTarget
) -> list[ArrayMetrics]:
    """Sort candidates by the normalized weighted objective, best first."""
    min_dyn, min_leak, min_cycle, min_interleave = rank_floors(designs)

    def score(d: ArrayMetrics) -> float:
        return (
            target.weight_dynamic * d.e_read_access / min_dyn
            + target.weight_leakage * (d.p_leakage + d.p_refresh) / min_leak
            + target.weight_cycle * d.t_random_cycle / min_cycle
            + target.weight_interleave * d.t_interleave / min_interleave
        )

    return sorted(designs, key=score)


def _ranked_designs(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache,
    obs: Obs | None,
    limit: int | None = None,
) -> list[ArrayMetrics]:
    """The sweep behind :func:`optimize` and :func:`pareto_solutions`.

    Evaluates every survivor as arrays, constrains and ranks the arrays
    (:func:`~repro.array.kernels.rank_batch`), and reads the top
    ``limit`` ranked candidates (all of them when ``limit`` is None)
    from the batch as :class:`ArrayMetrics`.
    """
    ev = _evaluated(tech, spec, eval_cache, obs)
    with obs_phase("rank", obs, designs=ev.size):
        order = kernels.rank_batch(ev, target)[:limit]
        return [ev.design(int(i)) for i in order]


def optimize(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache=None,
    obs: Obs | None = None,
) -> ArrayMetrics:
    """Full pipeline: enumerate, filter, rank; return the best design.

    ``eval_cache`` shares survivor batches and subarray terms across
    sweeps (a fresh one is created per call when omitted); ``solve_cache`` is an optional
    :class:`~repro.core.solvecache.SolveCache` consulted before -- and
    flushed after -- the sweep; ``obs`` counts candidates, cache hits,
    phase times and ``optimizer.wall_s`` (read them through
    :class:`SweepStats`) and, when it traces, records an ``optimize``
    span with nested prefilter/build/rank children.  None of them
    changes any returned number.

    Candidates are evaluated and ranked as arrays
    (:mod:`repro.array.kernels`), and the winner is read from them.
    """
    t0 = time.perf_counter() if obs is not None else 0.0
    with maybe_span(
        obs,
        "optimize",
        capacity_bits=spec.capacity_bits,
        cell_tech=spec.cell_tech.value,
        node_nm=tech.node_nm,
    ) as span:
        best = None
        if solve_cache is not None:
            best = solve_cache.get(spec, target, tech.node_nm)
            if obs is not None:
                # Touch both counters so the snapshot always derives a
                # solve_cache.hit_rate once a cache is in play, even on
                # an all-miss (or all-hit) run.
                obs.inc("solve_cache.hits", int(best is not None))
                obs.inc("solve_cache.misses", int(best is None))
            if best is not None and span is not None:
                span.attrs["solve_cache"] = "hit"
        if best is None:
            if eval_cache is None:
                eval_cache = EvalCache()
            swept = _with_repeater_penalty(spec, target)
            best = _ranked_designs(
                tech, swept, target, eval_cache=eval_cache, obs=obs, limit=1
            )[0]
            if solve_cache is not None:
                solve_cache.put(spec, target, tech.node_nm, best)
                # Solve-boundary flush: deferred (one write per batch)
                # when the caller holds the cache open as a context
                # manager.
                solve_cache.flush()
                if obs is not None:
                    obs.gauge("solve_cache.records", len(solve_cache))
        _account_store(solve_cache, obs)
        if obs is not None:
            obs.inc("optimizer.wall_s", time.perf_counter() - t0)
        return best


def pareto_solutions(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache | None = None,
    obs: Obs | None = None,
) -> list[ArrayMetrics]:
    """All constraint-satisfying designs, ranked -- the solution cloud the
    paper plots in its Figure 1 validation bubbles."""
    t0 = time.perf_counter() if obs is not None else 0.0
    with maybe_span(
        obs,
        "pareto",
        capacity_bits=spec.capacity_bits,
        cell_tech=spec.cell_tech.value,
        node_nm=tech.node_nm,
    ):
        if eval_cache is None:
            eval_cache = EvalCache()
        spec = _with_repeater_penalty(spec, target)
        ranked = _ranked_designs(
            tech, spec, target, eval_cache=eval_cache, obs=obs
        )
        if obs is not None:
            obs.inc("optimizer.wall_s", time.perf_counter() - t0)
        return ranked


def _with_repeater_penalty(
    spec: ArraySpec, target: OptimizationTarget
) -> ArraySpec:
    if target.max_repeater_delay_penalty == spec.max_repeater_delay_penalty:
        return spec
    from dataclasses import replace

    return replace(
        spec, max_repeater_delay_penalty=target.max_repeater_delay_penalty
    )
