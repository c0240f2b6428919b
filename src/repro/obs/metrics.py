"""Named counters, gauges, and histograms for the solve pipeline.

A :class:`MetricsRegistry` is a flat namespace of instruments created on
first use (``registry.counter("solve_cache.hits")``), so call sites need
no registration ceremony and an un-exercised code path simply leaves no
metric behind.  Everything serializes through :meth:`MetricsRegistry.
snapshot` to plain JSON types.

Conventions:

* **Counters** are monotonically increasing event counts (candidates
  enumerated, cache hits).  Counter pairs named ``<base>.hits`` /
  ``<base>.misses`` get a derived ``<base>.hit_rate`` in the snapshot.
* **Gauges** are last-write-wins point-in-time values (worker
  utilization, records in a cache file).
* **Histograms** are streaming distributions keeping count / sum / min /
  max (per-phase latency distributions).

A name ending in ``_s`` holds seconds (``phase.build_s``,
``optimizer.wall_s``): a clock reading rather than an event count.

Registries merge: workers snapshot theirs into the payloads the
parallel engine ships home, and the parent :meth:`MetricsRegistry.
absorb`s them -- counters and histograms add, gauges keep the last
write (:meth:`repro.obs.Obs.absorb_worker` first files the worker's
clock readings under a ``worker.`` prefix).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming distribution: count, sum, min, max, mean."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def merge(self, d: dict) -> None:
        """Fold another histogram's ``to_dict()`` into this one."""
        if not d.get("count"):
            return
        self.count += d["count"]
        self.total += d["sum"]
        self.min = min(self.min, d["min"])
        self.max = max(self.max, d["max"])


class MetricsRegistry:
    """A flat, create-on-first-use namespace of metric instruments."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instrument access

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            c = self.counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            g = self.gauges[name] = Gauge()
            return g

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            h = self.histograms[name] = Histogram()
            return h

    # ------------------------------------------------------------------ #
    # Serialization and merging

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every instrument.

        Counter pairs ``<base>.hits`` / ``<base>.misses`` additionally
        produce ``<base>.hit_rate`` under ``"derived"`` (0.0 when the
        pair saw no lookups), so cache effectiveness reads directly off
        the file.
        """
        counters = {
            name: c.value for name, c in sorted(self.counters.items())
        }
        derived = {}
        for name, hits in counters.items():
            if not name.endswith(".hits"):
                continue
            base = name[: -len(".hits")]
            misses = counters.get(f"{base}.misses")
            if misses is None:
                continue
            total = hits + misses
            derived[f"{base}.hit_rate"] = hits / total if total else 0.0
        return {
            "counters": counters,
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self.histograms.items())
            },
            "derived": derived,
        }

    def absorb(self, snapshot: dict | None, rename=None) -> None:
        """Merge another registry's ``snapshot()`` into this one.

        Counters and histograms accumulate; gauges keep the incoming
        value (last write wins); derived values are recomputed at the
        next snapshot, never merged.  ``rename`` maps each incoming name
        to the one it lands under (instruments renamed alike merge).
        """
        if not snapshot:
            return
        rename = rename or (lambda name: name)
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(rename(name)).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(rename(name)).set(value)
        for name, d in (snapshot.get("histograms") or {}).items():
            self.histogram(rename(name)).merge(d)

    def write(self, path: str | os.PathLike) -> None:
        """Write the snapshot as a JSON file."""
        Path(path).write_text(json.dumps(self.snapshot(), indent=1))
