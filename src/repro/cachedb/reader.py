"""Query a cachedb: exact grid hits, or a live solve.

A :class:`CacheDB` opens the cachedb's solve store and reads its
``meta`` row (grid axes, target, holes).  Both ways of asking it --
:meth:`CacheDB.query` by coordinates and :meth:`CacheDB.lookup_exact`
by :class:`~repro.core.config.MemorySpec` -- take one path: the
coordinates must name a grid cell, the cell is read once and memoized,
and a solved cell is served as its
:class:`~repro.core.results.Solution`, bit-identical to a live solve
(``source="exact"``).

Everything else is a miss: a coordinate off a grid axis, a grid hole,
or a cell with no record at this model's version (records are keyed
under the solve-cache version, so a cachedb built by another model
serves none of them).  On a miss the ``fallback`` policy decides:
``"solve"`` solves exactly what was asked live (``source="solve"``),
``"error"`` raises :class:`CacheDBMiss` naming the reason.  No answer
is blended between grid cells: the optimizer's winning organization
changes between grid capacities, so a blend is not the output of any
design and carries no error bound.

Every answered query lands in one of the reader's counters (``hits``,
``fallbacks``; ``lookup_exact`` counts its misses as ``misses``) and,
when an :class:`~repro.obs.Obs` is attached, the matching
``cachedb.*`` metrics.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.core.cacti import data_array_spec, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.results import Solution
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.store import parse_store_url
from repro.tech.cells import CellTech
from repro.cachedb.schema import (
    DB_METRICS,
    META_KEY,
    GridSpec,
    grid_key,
    grid_spec_for,
)

#: What a query does when the grid cannot answer it.
FALLBACKS = ("solve", "error")

#: The grid axes' names, in :func:`grid_key` argument order.
_AXIS_NAMES = ("technology", "node", "capacity", "block size",
               "associativity")


class CacheDBError(ValueError):
    """Unreadable or incomplete cachedb."""


class CacheDBMiss(CacheDBError):
    """A query the cachedb cannot answer under ``fallback="error"``."""


class _Cell(NamedTuple):
    """One grid cell as a reader holds it after its first touch."""

    solution: Solution | None  #: None at a hole or without a record
    metrics: dict | None  #: the solution's :data:`DB_METRICS`
    reason: str | None  #: why there is no solution


@dataclass(frozen=True)
class CacheDBResult:
    """One answered query.

    ``metrics`` holds the headline quantities in SI units (see
    :data:`~repro.cachedb.schema.DB_METRICS` for the key names) of
    ``solution``, the design point that answers the query.  ``source``
    records how it was produced: ``"exact"`` (read from the grid) or
    ``"solve"`` (solved live).
    """

    capacity_bytes: int
    block_bytes: int
    associativity: int
    node_nm: float
    cell_tech: str
    metrics: dict[str, float]
    source: str
    solution: Solution = field(compare=False)

    def metric(self, name: str) -> float:
        return self.metrics[name]

    def summary(self) -> str:
        m = self.metrics
        lines = [
            f"capacity        : {self.capacity_bytes / 1024:.0f} KB",
            f"cell technology : {self.cell_tech}",
            f"node            : {self.node_nm:g} nm",
            f"assoc / block   : {self.associativity} / "
            f"{self.block_bytes} B",
            f"source          : {self.source}",
            f"access time     : {m['access_time_s'] * 1e9:.3f} ns",
            f"random cycle    : {m['random_cycle_s'] * 1e9:.3f} ns",
            f"read energy     : {m['e_read_j'] * 1e9:.3f} nJ",
            f"write energy    : {m['e_write_j'] * 1e9:.3f} nJ",
            f"leakage power   : {m['p_leakage_w'] * 1e3:.2f} mW",
            f"refresh power   : {m['p_refresh_w'] * 1e3:.3f} mW",
            f"area            : {m['area_m2'] * 1e6:.2f} mm^2 "
            f"({m['area_efficiency'] * 100:.0f}% efficient)",
        ]
        return "\n".join(lines)


class CacheDB:
    """Reader over one cachedb store.

    ``path`` is a store spec like every store's: ``PATH`` or
    ``sqlite:PATH``.  Opening reads the ``meta`` row; each grid cell's
    records are read on the cell's first touch and memoized, so every
    later query of it is dictionary work.  A file that is not a sqlite
    database (a JSON cachedb written by an older build) and a store
    without the ``meta`` row (a build that did not finish, or a plain
    solve store) are refused with :class:`CacheDBError`, untouched.
    """

    def __init__(self, path: str | os.PathLike, *, obs: Obs | None = None):
        self.path = Path(parse_store_url(path))
        self.obs = obs
        self.hits = 0
        self.fallbacks = 0
        self.misses = 0
        if not self.path.is_file():
            raise CacheDBError(f"no cachedb at {path}")
        try:
            self._store = SolveCache(self.path)
        except ValueError as exc:
            raise CacheDBError(
                f"cannot read cachedb {path}: {exc} (a JSON cachedb from "
                "an older build must be rebuilt with cachedb build)"
            ) from exc
        meta = self._store.store.get_meta(META_KEY)
        if meta is None:
            self._store.close()
            raise CacheDBError(
                f"{path} is not a complete cachedb (no {META_KEY!r} meta "
                "row: its build did not finish); rerun cachedb build"
            )
        meta = json.loads(meta)
        self.grid = GridSpec(**meta["grid"])
        self.target = OptimizationTarget(**meta["target"])
        self._holes: dict[str, str] = meta["holes"]
        self._cells: dict[tuple, _Cell] = {}
        self._axes = self.grid.axes

    def __len__(self) -> int:
        """Grid cells the build solved (holes excluded)."""
        return len(self.grid) - len(self._holes)

    def info(self) -> dict:
        """Machine-readable summary (``cachedb info``)."""
        store = self._store.store
        return {
            "path": os.fspath(self.path),
            "target": asdict(self.target),
            "grid": asdict(self.grid),
            "points": len(self),
            "holes": len(self._holes),
            "version": store.version,
            "records": store.version_counts(),
        }

    def stats(self) -> dict:
        """Query counters since this reader was opened."""
        return {
            "hits": self.hits,
            "fallbacks": self.fallbacks,
            "misses": self.misses,
        }

    def _cell(self, coords: tuple) -> _Cell:
        """The grid cell at ``coords`` (on the grid), read on first use."""
        cell = self._cells.get(coords)
        if cell is None:
            cell = self._cells[coords] = self._read_cell(coords)
        return cell

    def _read_cell(self, coords: tuple) -> _Cell:
        key = grid_key(*coords)
        if key in self._holes:
            return _Cell(None, None,
                         f"grid hole at {key} ({self._holes[key]})")
        spec = grid_spec_for(*coords)
        arrays = [data_array_spec(spec)]
        if spec.is_cache:
            arrays.append(tag_array_spec(spec))
        records = [self._store.get(array, self.target, spec.node_nm)
                   for array in arrays]
        if None in records:
            return _Cell(None, None,
                         f"no record for {key} at model version "
                         f"{self._store.store.version}")
        solution = Solution(spec, *records)
        metrics = {name: extract(solution)
                   for name, extract in DB_METRICS.items()}
        return _Cell(solution, metrics, None)

    def _off_grid(self, coords: tuple) -> str:
        """The first axis off-grid ``coords`` leave, with its values."""
        name, axis, value = next(
            entry for entry in zip(_AXIS_NAMES, self._axes, coords)
            if entry[2] not in entry[1]
        )
        if isinstance(value, str) or axis[0] <= value <= axis[-1]:
            return f"{name} {value!r} not in grid {axis}"
        return (f"{name} {value!r} outside grid range "
                f"{axis[0]!r}-{axis[-1]!r}")

    def _find(self, coords: tuple, spec: MemorySpec | None,
              obs: Obs | None) -> _Cell:
        """The one exact path: the solved grid cell at ``coords`` --
        only if ``spec``, when given, is exactly its spec -- counted as
        a hit; else a cell without a solution, naming the reason."""
        if not all(map(operator.contains, self._axes, coords)):
            return _Cell(None, None, self._off_grid(coords))
        cell = self._cell(coords)
        if cell.solution is None:
            return cell
        if spec is not None and spec != cell.solution.spec:
            return _Cell(None, None,
                         "spec sets a knob the grid does not vary")
        self.hits += 1
        if obs is not None:
            obs.inc("cachedb.hits")
        return cell

    def lookup_exact(
        self,
        spec: MemorySpec,
        target: OptimizationTarget | None = None,
        obs: Obs | None = None,
    ) -> Solution | None:
        """The grid cell's Solution for exactly this solve request, or
        None.

        A hit requires the cachedb's optimization target to match and
        ``spec`` to equal the spec of a grid cell (so a spec using any
        off-grid knob -- banks, ECC, sleep transistors, sequential
        access -- can never be served a subtly different design).  Hits
        are bit-identical to a live solve.
        """
        obs = obs or self.obs
        solution = None
        if (target or OptimizationTarget()) == self.target:
            coords = (
                spec.cell_tech.value,
                spec.node_nm,
                spec.capacity_bytes,
                spec.block_bytes,
                spec.associativity or 0,
            )
            solution = self._find(coords, spec, obs).solution
        if solution is None:
            self.misses += 1
            if obs is not None:
                obs.inc("cachedb.misses")
        return solution

    def query(
        self,
        capacity_bytes: int,
        *,
        associativity: int = 8,
        block_bytes: int = 64,
        node_nm: float = 32.0,
        cell_tech: str | CellTech = "sram",
        fallback: str = "solve",
    ) -> CacheDBResult:
        """Answer one design-space query: the grid cell at these
        coordinates, or -- when the grid cannot answer -- what
        ``fallback`` says (see the module docstring).  The spec a query
        names is :func:`grid_spec_for` of its coordinates."""
        if fallback not in FALLBACKS:
            raise CacheDBError(
                f"unknown fallback {fallback!r}; expected one of {FALLBACKS}"
            )
        coords = (CellTech(cell_tech).value, float(node_nm),
                  capacity_bytes, block_bytes, associativity or 0)
        cell = self._find(coords, None, self.obs)
        if cell.solution is not None:
            source, solution, metrics = "exact", cell.solution, cell.metrics
        elif fallback == "error":
            raise CacheDBMiss(
                f"cachedb cannot answer the query ({cell.reason}) and "
                "fallback='error'"
            )
        else:
            from repro.core.cacti import solve

            source = "solve"
            solution = solve(grid_spec_for(*coords), self.target,
                             obs=self.obs)
            metrics = {name: extract(solution)
                       for name, extract in DB_METRICS.items()}
            self.fallbacks += 1
            if self.obs is not None:
                self.obs.inc("cachedb.fallbacks")
        tech, node, capacity, block, assoc = coords
        return CacheDBResult(
            capacity_bytes=capacity,
            block_bytes=block,
            associativity=assoc,
            node_nm=node,
            cell_tech=tech,
            metrics=dict(metrics),
            source=source,
            solution=solution,
        )


#: Per-process readers keyed by path, so study/sweep worker processes
#: open each cachedb and read each cell once, not once per task (the
#: ``worker_solve_cache`` idiom).  A pool worker starts with none (see
#: :func:`repro.core.parallel._init_worker`).
_OPEN_DBS: dict[str, CacheDB] = {}


def _memo_key(path: str | os.PathLike) -> str:
    """One key for every spelling of a cachedb: relative or absolute,
    plain or ``sqlite:``."""
    return os.path.abspath(parse_store_url(path))


def open_cachedb(path: str | os.PathLike) -> CacheDB:
    """A memoized :class:`CacheDB` for ``path`` (one open per process,
    whichever way the path is spelled)."""
    key = _memo_key(path)
    db = _OPEN_DBS.get(key)
    if db is None:
        db = _OPEN_DBS[key] = CacheDB(key)
    return db


def forget_cachedb(path: str | os.PathLike) -> None:
    """Drop and close the memoized reader of ``path``, if any."""
    db = _OPEN_DBS.pop(_memo_key(path), None)
    if db is not None:
        db._store.close()
