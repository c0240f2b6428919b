"""Sensitivity analysis: how solved metrics respond to inputs.

A modeling tool earns trust by exposing its derivatives: which inputs
move which outputs, and by how much.  This module sweeps a one-dimensional
input of a :class:`~repro.core.config.MemorySpec` (capacity,
associativity, block size, technology node, banks) or an optimizer knob,
re-solves at each point, and reports the resulting metric trajectories
plus local elasticities (d log(metric) / d log(input)).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.array.organization import EvalCache, InfeasibleOrganization
from repro.core import parallel
from repro.core.cacti import solve
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import NoFeasibleSolution
from repro.core.resilience import (
    ResiliencePolicy,
    TaskFailure,
    task_key,
)
from repro.core.results import Solution
from repro.core.solvecache import SolveCache, account_store as _account_store
from repro.obs import Obs, maybe_span

#: Metrics extracted from each solved point.
METRICS: dict[str, Callable[[Solution], float]] = {
    "access_time": lambda s: s.access_time,
    "random_cycle": lambda s: s.random_cycle_time,
    "e_read": lambda s: s.e_read,
    "p_leakage": lambda s: s.p_leakage,
    "p_refresh": lambda s: s.p_refresh,
    "area": lambda s: s.area,
    "area_efficiency": lambda s: s.area_efficiency,
}

#: Spec fields sweepable by name.  ``cell_tech`` is categorical: values
#: are technology registry names (any registered technology), points
#: carry the name as their value, and elasticities skip it.
SWEEPABLE = (
    "capacity_bytes",
    "block_bytes",
    "associativity",
    "nbanks",
    "node_nm",
    "cell_tech",
)


def _point_value(value) -> float | str:
    """Numeric sweep values as floats; categorical ones as strings."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return str(value)


@dataclass(frozen=True)
class SweepPoint:
    """One solved point of a sweep.

    ``value`` is a float for numeric parameters and a string for
    categorical ones (e.g. a ``cell_tech`` registry name).
    """

    value: float | str
    solution: Solution | None  #: None if infeasible at this value

    def metric(self, name: str) -> float | None:
        if self.solution is None:
            return None
        return METRICS[name](self.solution)


@dataclass(frozen=True)
class SensitivityResult:
    """A full one-dimensional sweep.

    Under a skip/retry :class:`~repro.core.resilience.ResiliencePolicy`
    the sweep is allowed to finish partially: points whose tasks failed
    terminally come back with ``solution=None`` and the corresponding
    :class:`~repro.core.resilience.TaskFailure` records in ``failed``.
    """

    parameter: str
    points: tuple[SweepPoint, ...]
    failed: tuple[TaskFailure, ...] = ()

    def series(self, metric: str) -> list[tuple[float, float]]:
        """(input value, metric value) pairs for the feasible points."""
        return [
            (p.value, p.metric(metric))
            for p in self.points
            if p.solution is not None
        ]

    def elasticity(self, metric: str) -> float | None:
        """Log-log slope of the metric over the sweep (least squares).

        An elasticity of 1.0 means the metric scales proportionally with
        the input; 0.5 like its square root; 0 means insensitive.
        Returns None with fewer than two feasible points, and for
        categorical sweeps (e.g. ``cell_tech``), whose string-valued
        points have no log-log slope.
        """
        pairs = [
            (v, m)
            for v, m in self.series(metric)
            if isinstance(v, float) and v > 0 and m > 0
        ]
        if len(pairs) < 2:
            return None
        xs = [math.log(v) for v, _ in pairs]
        ys = [math.log(m) for _, m in pairs]
        n = len(xs)
        mean_x, mean_y = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        if sxx == 0:
            return None
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        return sxy / sxx

    def report(self) -> str:
        lines = [f"sensitivity sweep over {self.parameter}"]
        for metric in METRICS:
            e = self.elasticity(metric)
            if e is None:
                continue
            lines.append(f"  {metric:<16} elasticity {e:+.2f}")
        return "\n".join(lines)


def _sweep_point_task(payload: tuple) -> tuple[Solution | None, dict | None]:
    """Worker task: solve one sweep point, shipping telemetry home.

    Returns ``(solution, payload)``, with ``None`` for an infeasible
    point's solution, mirroring the serial path's treatment.  The
    payload is the ``export_payload()`` of an Obs of the parent's kind,
    or None when the parent has no sink.  The
    persistent solve cache is worker-local and keyed by path, so the
    JSON records load once per worker, not once per point.  Only the
    *intended* infeasibilities are swallowed -- no feasible
    organization, or a spec whose geometry cannot divide
    (``InfeasibleOrganization``); any other error is a genuine model
    failure and propagates (to be captured as a ``TaskFailure`` when a
    resilience policy is active).
    """
    spec, target, cache_path, kind = payload
    obs = parallel.worker_obs(kind)
    try:
        solution = solve(
            spec,
            target,
            eval_cache=parallel.worker_eval_cache(),
            solve_cache=parallel.worker_solve_cache(cache_path),
            obs=obs,
        )
    except (NoFeasibleSolution, InfeasibleOrganization):
        solution = None
    return solution, obs.export_payload() if obs is not None else None


def sweep(
    base: MemorySpec,
    parameter: str,
    values: Sequence,
    target: OptimizationTarget | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    jobs: int | str = 1,
    obs: Obs | None = None,
    resilience: ResiliencePolicy | None = None,
) -> SensitivityResult:
    """Re-solve ``base`` across ``values`` of ``parameter``.

    One shared ``eval_cache`` spans the whole serial sweep (created when
    omitted), so neighboring points reuse subarray and H-tree designs --
    the reuse shows up in ``obs``.  ``solve_cache`` persists whole
    point solves across sweeps (flushed once per sweep, not per point);
    ``jobs > 1`` solves points concurrently in worker processes (point
    order is preserved, numbers unchanged); ``obs`` counts the sweep,
    worker and resilience events included, and a tracing ``obs``
    records one ``sweep.point`` span per point.

    ``resilience`` makes the sweep fault tolerant: failed points are
    retried/skipped/raised per the policy, a journal checkpoints each
    completed point (resuming re-solves only the unfinished ones), and
    terminal failures land in the result's ``failed`` list with
    ``solution=None`` at the corresponding point.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(
            f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}"
        )
    # An invalid spec at some value (e.g. a capacity that does not
    # divide into sets) counts as an infeasible point in either mode.
    specs: list[MemorySpec | None] = []
    for value in values:
        try:
            specs.append(replace(base, **{parameter: value}))
        except ValueError:
            specs.append(None)
    # Point-level parallelism is coarse: ``auto`` only needs two live
    # points (and more than one core) to be worth a pool.
    jobs = parallel.effective_jobs(jobs, sum(s is not None for s in specs))
    solutions: list[Solution | None]
    failures: list[TaskFailure] = []
    with maybe_span(
        obs, "sweep", parameter=parameter, points=len(specs), jobs=jobs
    ):
        if resilience is None and (
            jobs == 1 or sum(s is not None for s in specs) <= 1
        ):
            if eval_cache is None:
                eval_cache = EvalCache()
            solutions = []
            with solve_cache if solve_cache is not None else nullcontext():
                for value, spec in zip(values, specs):
                    solution = None
                    if spec is not None:
                        with maybe_span(
                            obs, "sweep.point", value=_point_value(value)
                        ):
                            try:
                                solution = solve(
                                    spec,
                                    target,
                                    eval_cache=eval_cache,
                                    solve_cache=solve_cache,
                                    obs=obs,
                                )
                            except (
                                NoFeasibleSolution,
                                InfeasibleOrganization,
                            ):
                                solution = None
                    solutions.append(solution)
            # Drain the sweep-boundary flush the context exit above
            # just performed.
            _account_store(solve_cache, obs)
        else:
            cache_path = (
                solve_cache.url if solve_cache is not None else None
            )
            live = [s for s in specs if s is not None]
            keys = None
            if resilience is not None and resilience.journal is not None:
                keys = [
                    task_key(
                        "sweep.point",
                        {
                            "spec": spec,
                            "target": target or OptimizationTarget(),
                        },
                    )
                    for spec in live
                ]
            results = parallel.parallel_map(
                _sweep_point_task,
                [
                    (spec, target, cache_path, parallel.obs_kind(obs))
                    for spec in live
                ],
                jobs,
                obs=obs,
                span_name="sweep.point",
                resilience=resilience,
                keys=keys,
            )
            results_iter = iter(results)
            solutions = []
            for spec in specs:
                if spec is None:
                    solutions.append(None)
                    continue
                outcome = next(results_iter)
                if isinstance(outcome, TaskFailure):
                    failures.append(outcome)
                    solutions.append(None)
                    continue
                solution, worker_payload = outcome
                solutions.append(solution)
                if obs is not None:
                    obs.absorb_worker(worker_payload)
            if solve_cache is not None:
                solve_cache.refresh()
                _account_store(solve_cache, obs)
    if obs is not None:
        obs.inc("sensitivity.points", len(specs))
        obs.inc(
            "sensitivity.feasible_points",
            sum(s is not None for s in solutions),
        )
    points = tuple(
        SweepPoint(value=_point_value(value), solution=solution)
        for value, solution in zip(values, solutions)
    )
    if not any(p.solution is not None for p in points):
        raise NoFeasibleSolution(
            f"no feasible point in the {parameter} sweep"
        )
    return SensitivityResult(
        parameter=parameter, points=points, failed=tuple(failures)
    )


def capacity_sweep(
    base: MemorySpec,
    factors: Sequence[int] = (1, 2, 4, 8, 16),
    **kwargs,
) -> SensitivityResult:
    """Convenience: sweep capacity by powers of two from the base.

    Keyword arguments (``jobs``, ``eval_cache``, ``solve_cache``,
    ``obs``, ``target``) pass through to :func:`sweep`.
    """
    return sweep(
        base,
        "capacity_bytes",
        [base.capacity_bytes * f for f in factors],
        **kwargs,
    )
