"""Precomputed design-space database: exact answers or live solves.

The cachedb is the serving tier over the solver: ``build_cachedb``
solves every cell of a (technology x node x capacity x block x
associativity) grid through the batch-solve engine into a solve store
(:class:`~repro.store.SqliteStore`) and records the grid in one
``meta`` row; :class:`CacheDB` answers a query whose coordinates name
a solved grid cell with that cell's solution (bit-identical to a live
solve, dictionary work after the cell's first read), and every other
query -- off the grid, at a hole, or at a cell with no record at this
model's version -- under ``fallback="solve"|"error"``: a live solve of
exactly what was asked, or :class:`CacheDBMiss` naming the reason.
No answer is blended between grid cells.  See
``docs/MODELING.md`` section 16.
"""

from repro.cachedb.builder import BuildReport, build_cachedb
from repro.cachedb.reader import (
    FALLBACKS,
    CacheDB,
    CacheDBError,
    CacheDBMiss,
    CacheDBResult,
    open_cachedb,
)
from repro.cachedb.schema import (
    DB_METRICS,
    GridSpec,
    grid_key,
    grid_spec_for,
)

__all__ = [
    "BuildReport",
    "CacheDB",
    "CacheDBError",
    "CacheDBMiss",
    "CacheDBResult",
    "DB_METRICS",
    "FALLBACKS",
    "GridSpec",
    "build_cachedb",
    "grid_key",
    "grid_spec_for",
    "open_cachedb",
]
