"""Precomputed design-space database with interpolated lookup.

The cachedb is the serving tier over the solver: ``build_cachedb``
solves every cell of a (technology x node x capacity x block x
associativity) grid through the batch-solve engine into a solve store
(:class:`~repro.store.SqliteStore`) and records the grid in one
``meta`` row; :class:`CacheDB` answers queries from that store --
on-grid queries by exact hit (bit-identical to a live solve, dictionary
work after a cell's first read), off-grid queries by log-linear
interpolation between neighboring grid points, with
``fallback="solve"|"error"|"nearest"`` for everything the grid cannot
answer, records written by another model version included.  See
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
