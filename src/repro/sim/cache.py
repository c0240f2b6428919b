"""Set-associative cache model with MESI line states.

A functional cache with LRU replacement, used for every level of the
simulated hierarchy.  Lines carry MESI states so the coherence protocol in
:mod:`repro.sim.coherence` can track sharing across the private L2s.

Every method takes the line's *block number* (``address //
block_bytes``), which :class:`repro.sim.system.System` computes once per
reference and hands to every level.  Each set is a ``dict`` keyed by the
block number itself, mapping to its :class:`MesiState`; the dict's
insertion order is the recency order: a hit or a fill moves its block to
the end (most recently used), and an eviction takes the first key, which
``fill`` returns as the victim's block as is.  No per-line object is
allocated, and the L1, L2, L3 and the directory can share one int per
line.
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
    """One set-associative LRU cache instance, addressed by block number."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._nsets = config.num_sets
        self._assoc = config.associativity
        self._sets: list[dict[int, MesiState]] = [
            {} for _ in range(self._nsets)
        ]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #

    def lookup(self, block: int) -> MesiState | None:
        """The line's state, or None; never updates recency (for
        coherence snoops)."""
        return self._sets[block % self._nsets].get(block)

    def access(self, block: int, is_write: bool) -> MesiState | None:
        """Probe and update recency; returns the line's state on a hit,
        else None.

        A write hit promotes EXCLUSIVE to MODIFIED.  A write hit on a
        SHARED line does *not* silently upgrade -- the coherence layer
        must invalidate other sharers first and then call
        :meth:`set_state`.
        """
        ways = self._sets[block % self._nsets]
        state = ways.pop(block, None)
        if state is None:
            self.misses += 1
            return None
        self.hits += 1
        if is_write and state is _EXCLUSIVE:
            state = _MODIFIED
        ways[block] = state
        return state

    def fill(self, block: int, state: MesiState) -> tuple[int, bool] | None:
        """Install a line as most recently used; returns
        (victim_block, was_dirty) if one was evicted, else None."""
        ways = self._sets[block % self._nsets]
        if ways.pop(block, None) is None and len(ways) >= self._assoc:
            victim = next(iter(ways))
            dirty = ways.pop(victim) is _MODIFIED
            ways[block] = state
            return victim, dirty
        ways[block] = state
        return None

    def invalidate(self, block: int) -> bool:
        """Drop a line (coherence); returns True if it was dirty."""
        return self._sets[block % self._nsets].pop(block, None) is _MODIFIED

    def set_state(self, block: int, state: MesiState) -> None:
        """Change a resident line's state without touching recency."""
        ways = self._sets[block % self._nsets]
        if block in ways:
            ways[block] = state

    # ------------------------------------------------------------------ #

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def occupancy(self) -> int:
        """Number of resident lines (for capacity tests)."""
        return sum(len(ways) for ways in self._sets)
