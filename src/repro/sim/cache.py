"""Set-associative cache model with MESI line states.

A functional cache with LRU replacement, used for every level of the
simulated hierarchy.  Lines carry MESI states so the coherence protocol in
:mod:`repro.sim.coherence` can track sharing across the private L2s.

Each set is a ``dict`` from tag to :class:`MesiState` whose insertion
order is the recency order: a hit or a fill moves its tag to the end
(most recently used), and an eviction takes the first key.  No per-line
object is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MesiState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    # INVALID lines are simply absent from the cache.


_MODIFIED = MesiState.MODIFIED
_EXCLUSIVE = MesiState.EXCLUSIVE


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    capacity_bytes: int
    block_bytes: int
    associativity: int
    access_cycles: int  #: hit latency contribution (CPU cycles)
    cycle_time: int = 1  #: issue pitch (CPU cycles) for bank occupancy
    nbanks: int = 1

    def __post_init__(self) -> None:
        for name in ("capacity_bytes", "block_bytes", "associativity"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"cache {name} must be positive, got {getattr(self, name)}"
                )
        set_bytes = self.block_bytes * self.associativity
        if self.capacity_bytes < set_bytes:
            raise ValueError(
                f"cache capacity {self.capacity_bytes} B holds no set of "
                f"{set_bytes} B"
            )
        if self.capacity_bytes % set_bytes:
            raise ValueError("capacity must divide into full sets")

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.block_bytes * self.associativity)


class Cache:
    """One set-associative LRU cache instance."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._block = config.block_bytes
        self._nsets = config.num_sets
        self._assoc = config.associativity
        self._sets: list[dict[int, MesiState]] = [
            {} for _ in range(self._nsets)
        ]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #

    def lookup(self, address: int) -> MesiState | None:
        """The line's state, or None; never updates recency (for
        coherence snoops)."""
        block = address // self._block
        return self._sets[block % self._nsets].get(block // self._nsets)

    def access(self, address: int, is_write: bool) -> MesiState | None:
        """Probe and update recency; returns the line's state on a hit,
        else None.

        A write hit promotes EXCLUSIVE to MODIFIED.  A write hit on a
        SHARED line does *not* silently upgrade -- the coherence layer
        must invalidate other sharers first and then call
        :meth:`set_state`.
        """
        block = address // self._block
        nsets = self._nsets
        ways = self._sets[block % nsets]
        tag = block // nsets
        state = ways.pop(tag, None)
        if state is None:
            self.misses += 1
            return None
        self.hits += 1
        if is_write and state is _EXCLUSIVE:
            state = _MODIFIED
        ways[tag] = state
        return state

    def fill(self, address: int, state: MesiState) -> tuple[int, bool] | None:
        """Install a line as most recently used; returns
        (victim_address, was_dirty) if one was evicted, else None."""
        block = address // self._block
        nsets = self._nsets
        index = block % nsets
        ways = self._sets[index]
        tag = block // nsets
        if ways.pop(tag, None) is None and len(ways) >= self._assoc:
            lru_tag = next(iter(ways))
            dirty = ways.pop(lru_tag) is _MODIFIED
            ways[tag] = state
            return (lru_tag * nsets + index) * self._block, dirty
        ways[tag] = state
        return None

    def invalidate(self, address: int) -> bool:
        """Drop a line (coherence); returns True if it was dirty."""
        block = address // self._block
        ways = self._sets[block % self._nsets]
        return ways.pop(block // self._nsets, None) is _MODIFIED

    def set_state(self, address: int, state: MesiState) -> None:
        """Change a resident line's state without touching recency."""
        block = address // self._block
        ways = self._sets[block % self._nsets]
        tag = block // self._nsets
        if tag in ways:
            ways[tag] = state

    # ------------------------------------------------------------------ #

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def occupancy(self) -> int:
        """Number of resident lines (for capacity tests)."""
        return sum(len(ways) for ways in self._sets)
