"""Persistent solve-record cache over the sqlite record store.

Design-space exploration workloads re-solve the same arrays over and
over -- across processes, sweeps, and sessions.  In the spirit of the
Accelergy CACTI wrapper's records file, :class:`SolveCache` maps a
stable hash of ``(ArraySpec, OptimizationTarget, node)`` to the winning
:class:`~repro.array.organization.ArrayMetrics`, so a repeated query
costs an indexed-row lookup instead of a sweep.

Persistence is delegated to a :class:`~repro.store.SqliteStore`: a
WAL-mode sqlite database, opened from a plain path (``"solves.db"``)
or a ``sqlite:`` URL (``"sqlite:solves.db"``, the same database).  A
path that holds something other than a sqlite database -- a JSON cache
file written by an older build, say -- is refused with a reason and
left untouched.  The same file may also hold a study's cell records
(:func:`repro.study.runner.run_study`), each kind at its own version.

Round-trips are bit-identical: records travel as JSON, Python's
``json`` emits the shortest ``repr`` of each float (which parses back
to the exact same IEEE-754 value), and the regression tests assert
field-for-field equality.

Records are version-stamped.  ``CACHE_VERSION`` must be bumped whenever
the model changes numbers (any change to the circuit or array models).
Rows at any other version -- an older build's, or a newer one's -- are
never served and never overwritten (the version is part of the key
hash); ``repro cache gc`` deletes them, keeping the current solve and
study rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from functools import lru_cache

from repro.array.organization import ArrayMetrics, ArraySpec, OrgParams
from repro.core.config import OptimizationTarget
from repro.store import SqliteStore, open_store
from repro.tech.cells import CellTech

#: Bump on any model change that alters solved numbers, or any change
#: to the key scheme (v2: numeric key fields are normalized to float;
#: v3: the technology axis is registry-backed -- cell technologies are
#: identified by registry name in keys and records, and new
#: technologies such as stt-ram may appear).
CACHE_VERSION = "repro-solve-cache-v3"

#: ArrayMetrics scalar fields (everything except the nested spec/org).
_METRIC_FIELDS = tuple(
    f.name for f in fields(ArrayMetrics) if f.name not in ("spec", "org")
)
_SPEC_FIELDS = tuple(f.name for f in fields(ArraySpec))
_TARGET_FIELDS = tuple(f.name for f in fields(OptimizationTarget))


def spec_to_dict(spec: ArraySpec) -> dict:
    # ``asdict`` without its deep copy: every ArraySpec field is a scalar.
    d = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    d["cell_tech"] = spec.cell_tech.value
    return d


def spec_from_dict(d: dict) -> ArraySpec:
    d = dict(d)
    d["cell_tech"] = CellTech(d["cell_tech"])
    return ArraySpec(**d)


def metrics_to_dict(metrics: ArrayMetrics) -> dict:
    d = {name: getattr(metrics, name) for name in _METRIC_FIELDS}
    d["spec"] = spec_to_dict(metrics.spec)
    d["org"] = asdict(metrics.org)
    return d


def metrics_from_dict(d: dict) -> ArrayMetrics:
    d = dict(d)
    spec = spec_from_dict(d.pop("spec"))
    org = OrgParams(**d.pop("org"))
    return ArrayMetrics(spec=spec, org=org, **d)


def _normalize_numbers(value):
    """Coerce every numeric leaf to float so equal values hash equally.

    ``json.dumps`` encodes ``32`` and ``32.0`` differently, so without
    normalization the same physical solve (``node_nm=32`` vs ``32.0``)
    would hash to two keys, silently missing the cache and duplicating
    records.  Bools are ints in Python but identity-relevant, so they
    pass through untouched.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_numbers(v) for v in value]
    return value


def solve_key(
    spec: ArraySpec, target: OptimizationTarget, node_nm: float
) -> str:
    """Stable content hash of one solve request, memoized per process
    on the version and the (frozen, hashable) request."""
    return _solve_key(CACHE_VERSION, spec, target, node_nm)


@lru_cache(maxsize=1 << 16)
def _solve_key(version, spec, target, node_nm) -> str:
    import hashlib  # OpenSSL: loaded only by processes that hash keys

    payload = _normalize_numbers({
        "version": version,
        "node_nm": node_nm,
        "spec": spec_to_dict(spec),
        "target": {name: getattr(target, name) for name in _TARGET_FIELDS},
    })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_shape_ok(record: dict) -> bool:
    """Structural screen: a solve record must carry its spec and org."""
    return "spec" in record and "org" in record


def open_solve_store(spec: str | os.PathLike) -> SqliteStore:
    """Open a solve-record store at the solve-cache version, with
    solve-record screening installed."""
    return open_store(
        spec, version=CACHE_VERSION, validate=_record_shape_ok
    )


class SolveCache:
    """Solve-keyed facade over a persistent :class:`~repro.store.SqliteStore`.

    Opt-in: pass a path or store URL to
    :class:`~repro.core.cacti.CactiD` via ``cache_path`` or to the CLI
    via ``--cache``.  Unreadable, corrupt, or version-mismatched
    records are treated as misses, never as errors.

    Safe to share one store across processes (the batch-solve engine
    does): row upserts serialize on the database's own write lock, and
    every read goes to the shared database, so records another process
    flushed are served without reopening.  A killed process cannot
    corrupt the records, and two concurrent writers cannot lose each
    other's entries.

    Writes are batched: :meth:`put` only stages the record, and
    :meth:`flush` performs the store write.  The solve pipeline
    flushes at solve and batch boundaries, so a thousand-record sweep
    costs O(1) store writes instead of O(n^2) disk I/O.  Using the
    cache as a context manager defers flushes until the ``with`` block
    exits::

        with cache:            # flushes once on exit, however many puts
            for spec in specs:
                ...
                cache.put(...)
                cache.flush()  # deferred: records only a pending flush
    """

    def __init__(self, store: str | os.PathLike):
        self.store = open_solve_store(store)
        self.hits = 0
        self.misses = 0
        #: Event counts already drained to an observability sink (see
        #: :meth:`drain_events`).
        self._drained: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Store delegation

    @property
    def path(self):
        """Primary on-disk location of the backing store."""
        return self.store.path

    @property
    def url(self) -> str:
        """Round-trippable store spec: ``SolveCache(cache.url)`` in any
        process opens the same store."""
        return self.store.url

    def __len__(self) -> int:
        return len(self.store)

    @property
    def corrupt_records(self) -> int:
        """Distinct corrupt/truncated records dropped so far."""
        return self.store.corrupt_records

    def flush(self) -> None:
        """Write pending records to the store (no-op when unchanged).

        Inside a ``with cache:`` block the flush is deferred to the
        block exit, so nested solve/batch boundaries collapse to one
        store write per batch.
        """
        self.store.flush()

    def __enter__(self) -> "SolveCache":
        self.store.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.store.__exit__(exc_type, exc, tb)

    def close(self) -> None:
        self.store.close()

    # ------------------------------------------------------------------ #
    # Solve-keyed access

    def get(
        self, spec: ArraySpec, target: OptimizationTarget, node_nm: float
    ) -> ArrayMetrics | None:
        key = solve_key(spec, target, node_nm)
        record = self.store.get(key)
        if record is None:
            self.misses += 1
            return None
        try:
            metrics = metrics_from_dict(record)
        except (KeyError, TypeError, ValueError):
            # A hand-edited or truncated record: a miss, and tombstoned
            # so it is never re-parsed or re-persisted (the next flush
            # purges it from disk too).
            self.store.tombstone(key)
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(
        self,
        spec: ArraySpec,
        target: OptimizationTarget,
        node_nm: float,
        metrics: ArrayMetrics,
    ) -> None:
        self.store.put(
            solve_key(spec, target, node_nm), metrics_to_dict(metrics)
        )

    # ------------------------------------------------------------------ #
    # Observability

    def stats(self) -> dict:
        """Facade hit/miss counters plus the store's ``store.*`` stats."""
        return {"hits": self.hits, "misses": self.misses,
                **self.store.stats()}

    def drain_events(self) -> tuple[dict[str, int], dict[str, int]]:
        """Event-count deltas since the last drain, plus point-in-time
        gauges.

        Counters are cumulative for the cache's lifetime; observability
        sinks (worker-local ``Obs`` registries that ship home and merge
        by addition) need per-interval increments instead.  Returns
        ``(deltas, gauges)`` where ``deltas`` covers hits / misses /
        flush_writes / corrupt_records and ``gauges``
        covers records / bytes_on_disk.
        """
        store_stats = self.store.stats()
        current = {
            "hits": self.hits,
            "misses": self.misses,
            "flush_writes": store_stats["flush_writes"],
            "corrupt_records": store_stats["corrupt_records"],
        }
        deltas = {
            name: value - self._drained.get(name, 0)
            for name, value in current.items()
        }
        self._drained = current
        gauges = {
            "records": store_stats["records"],
            "bytes_on_disk": store_stats["bytes_on_disk"],
        }
        return deltas, gauges


def account_store(solve_cache, obs) -> None:
    """Drain a solve cache's store events into ``obs``.

    Emits the ``store.*`` metric family: counters for hits / misses /
    flush_writes / corrupt_records (the hits/misses pair
    yields a derived ``store.hit_rate`` in snapshots) and gauges for
    records / bytes_on_disk.  Safe to call at every solve boundary:
    counts are drained as deltas, never double-counted.
    """
    if solve_cache is None or obs is None:
        return
    deltas, gauges = solve_cache.drain_events()
    for name, delta in deltas.items():
        obs.inc(f"store.{name}", delta)
    for name, value in gauges.items():
        obs.gauge(f"store.{name}", value)
