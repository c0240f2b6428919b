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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.array.organization import EvalCache, InfeasibleOrganization
from repro.core import parallel
from repro.core.cacti import _run_batch, _solve_task
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import NoFeasibleSolution
from repro.core.resilience import ResiliencePolicy, TaskFailure
from repro.core.results import Solution
from repro.core.solvecache import SolveCache
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

    Under a skip :class:`~repro.core.resilience.ResiliencePolicy` the
    sweep is allowed to finish partially: points whose tasks failed
    come back with ``solution=None`` and the corresponding
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
    """Task: solve one sweep point (see :func:`repro.core.cacti._solve_task`).

    Returns ``(solution, obs payload)``, with ``None`` for an infeasible
    point's solution.  Only the *intended* infeasibilities are
    swallowed -- no feasible organization, or a spec whose geometry
    cannot divide (``InfeasibleOrganization``); any other error is a
    genuine model failure and propagates (to be captured as a
    ``TaskFailure`` under a skip resilience policy).
    """
    return _solve_task(
        payload, infeasible=(NoFeasibleSolution, InfeasibleOrganization)
    )


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

    The points run through the batch path of
    :func:`~repro.core.cacti.solve_batch`, as ``sweep.point`` tasks.
    Points solved in this process (all of them at ``jobs=1``) share the
    caller's ``eval_cache`` -- a fresh one per call when omitted -- so
    neighboring points reuse subarray terms (the reuse shows up in
    ``obs``), and the caller's ``solve_cache`` instance,
    which persists whole point solves across sweeps and flushes once per
    sweep, not per point.  ``jobs > 1`` solves points concurrently in
    worker processes, on worker-local caches (point order is preserved,
    numbers unchanged).  ``obs`` counts the sweep, worker and
    resilience events included; a tracing ``obs`` records one
    ``sweep.point`` span per point solved in this process.

    ``resilience`` (default: raise the first error) sets the error
    policy: under skip, failed points land in the result's ``failed``
    list with ``solution=None`` at the corresponding point.
    ``solve_cache`` is the sweep's checkpoint: a rerun against it
    re-solves only the points it lacks.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(
            f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}"
        )
    # An invalid spec at some value (e.g. a capacity that does not
    # divide into sets) counts as an infeasible point.
    specs: list[MemorySpec | None] = []
    for value in values:
        try:
            specs.append(replace(base, **{parameter: value}))
        except ValueError:
            specs.append(None)
    live = [s for s in specs if s is not None]
    jobs = parallel.resolve_jobs(jobs)
    with maybe_span(
        obs, "sweep", parameter=parameter, points=len(specs), jobs=jobs
    ):
        solved = _run_batch(
            _sweep_point_task,
            "sweep.point",
            live,
            [target] * len(live),
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            jobs=jobs,
            obs=obs,
            resilience=resilience,
        )
    solved_iter = iter(solved)
    solutions = [
        None if spec is None else next(solved_iter) for spec in specs
    ]
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
        parameter=parameter, points=points, failed=solved.failed
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
