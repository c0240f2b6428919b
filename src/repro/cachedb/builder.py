"""Precompute a design-space grid into a cachedb.

A build is one :func:`~repro.core.cacti.solve_batch` call over the grid
cells into a :class:`~repro.core.solvecache.SolveCache` at the
cachedb's path, so it inherits parallel workers (``jobs``), sweep
statistics, observability spans, and -- through a
:class:`~repro.core.resilience.ResiliencePolicy` -- skip/retry
semantics.  The store is the build's checkpoint: a rebuild into the
same path is served the records it already holds, so an interrupted
build resumes by running again.  The ``meta`` row
(:data:`~repro.cachedb.schema.META_KEY`: grid axes, target, holes) is
dropped when a build starts and written last, so a killed build leaves
a store the reader refuses as incomplete, never a torn cachedb.

Infeasible grid cells are expected (a dense grid always contains
geometrically impossible or electrically infeasible corners), so the
default policy is ``on_error="skip"``: failures become *holes*,
recorded with their reason, and the reader treats a hole like an
off-grid miss (fallback applies).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from repro.core.cacti import refuse_journal, solve_batch
from repro.core.config import OptimizationTarget
from repro.core.resilience import ResiliencePolicy
from repro.core.solvecache import SolveCache
from repro.cachedb.schema import META_KEY, GridSpec, grid_spec_for


@dataclass(frozen=True)
class BuildReport:
    """What one build run did, for the CLI and tests."""

    path: str
    grid_points: int  #: total cells in the grid
    solved: int  #: cells with a stored design point
    holes: int  #: infeasible/failed cells recorded as holes
    wall_time_s: float

    def summary(self) -> str:
        lines = [
            f"cachedb         : {self.path}",
            f"grid points     : {self.grid_points}",
            f"solved          : {self.solved}",
            f"holes           : {self.holes}",
            f"build wall time : {self.wall_time_s:.2f} s",
        ]
        return "\n".join(lines)


def build_cachedb(
    path: str | os.PathLike,
    grid: GridSpec,
    *,
    target: OptimizationTarget | None = None,
    jobs: int | str = "auto",
    resilience: ResiliencePolicy | None = None,
    obs=None,
) -> BuildReport:
    """Solve every cell of ``grid`` into the cachedb store at ``path``.

    ``target`` steers every solve (one target per cachedb -- it
    answers queries for exactly one optimization preset).  ``jobs``
    fans the grid out over worker processes.  ``resilience`` overrides
    the default skip-and-record policy; one carrying a journal raises
    ValueError, since re-running an interrupted build into the same
    ``path`` already serves the cells it solved from the store.

    A file at ``path`` that is not a sqlite database (a JSON cachedb
    written by an older build, say) is refused untouched.
    """
    refuse_journal(resilience)
    t0 = time.perf_counter()
    target = target or OptimizationTarget()
    resilience = resilience or ResiliencePolicy(on_error="skip")

    holes: dict[str, str] = {}
    keys: list[str] = []
    specs: list = []
    for key, coords in grid.points():
        try:
            spec = grid_spec_for(*coords)
        except ValueError as exc:
            holes[key] = f"invalid spec: {exc}"
            continue
        keys.append(key)
        specs.append(spec)

    store = SolveCache(path)
    try:
        store.store.put_meta(META_KEY, None)
        outcomes = solve_batch(
            specs,
            target,
            solve_cache=store,
            jobs=jobs,
            obs=obs,
            resilience=resilience,
        )
        for failure in outcomes.failed:
            holes[keys[failure.index]] = (
                f"{failure.error_type}: {failure.message}"
            )
        store.store.put_meta(META_KEY, json.dumps({
            "grid": asdict(grid),
            "target": asdict(target),
            "holes": holes,
        }, sort_keys=True))
    finally:
        store.close()

    solved = len(specs) - len(outcomes.failed)
    if obs is not None:
        obs.inc("cachedb.points_built", solved)
        obs.inc("cachedb.holes", len(holes))
    return BuildReport(
        path=os.fspath(path),
        grid_points=len(grid),
        solved=solved,
        holes=len(holes),
        wall_time_s=time.perf_counter() - t0,
    )
