"""Reference oracle for :class:`repro.sim.cache.Cache`.

The set-associative MESI cache as it was written before the hot-path
rewrite: every resident line is a :class:`Line` object stamped with the
tick of its last use, and a fill into a full set evicts the line with
the smallest stamp.  It is slow and allocates per line, but its LRU
order is obviously right; ``tests/sim/test_cache_equivalence.py`` drives
random operation sequences through both caches and requires identical
hits, misses, victims, dirty flags and states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cache import CacheConfig, MesiState


@dataclass
class Line:
    tag: int
    state: MesiState
    last_use: int


class ReferenceCache:
    """One set-associative LRU cache, recency kept as per-line ticks."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: list[dict[int, Line]] = [
            {} for _ in range(config.num_sets)
        ]
        self._tick = 0
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> tuple[dict[int, Line], int]:
        block = address // self.config.block_bytes
        index = block % self.config.num_sets
        tag = block // self.config.num_sets
        return self._sets[index], tag

    def lookup(self, address: int) -> Line | None:
        """Probe without updating recency (for coherence snoops)."""
        ways, tag = self._locate(address)
        return ways.get(tag)

    def access(self, address: int, is_write: bool) -> Line | None:
        """Probe and update recency; returns the line on a hit else None.
        A write hit promotes EXCLUSIVE to MODIFIED, never SHARED."""
        self._tick += 1
        ways, tag = self._locate(address)
        line = ways.get(tag)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        line.last_use = self._tick
        if is_write and line.state is MesiState.EXCLUSIVE:
            line.state = MesiState.MODIFIED
        return line

    def fill(self, address: int, state: MesiState) -> tuple[int, bool] | None:
        """Install a line; returns (victim_address, was_dirty) if one was
        evicted, else None."""
        self._tick += 1
        ways, tag = self._locate(address)
        victim: tuple[int, bool] | None = None
        if tag not in ways and len(ways) >= self.config.associativity:
            lru_tag = min(ways, key=lambda t: ways[t].last_use)
            old = ways.pop(lru_tag)
            victim = (
                self._rebuild_address(address, lru_tag),
                old.state is MesiState.MODIFIED,
            )
        ways[tag] = Line(tag=tag, state=state, last_use=self._tick)
        return victim

    def invalidate(self, address: int) -> bool:
        """Drop a line (coherence); returns True if it was dirty."""
        ways, tag = self._locate(address)
        line = ways.pop(tag, None)
        return line is not None and line.state is MesiState.MODIFIED

    def set_state(self, address: int, state: MesiState) -> None:
        line = self.lookup(address)
        if line is not None:
            line.state = state

    def _rebuild_address(self, probe_address: int, victim_tag: int) -> int:
        block = probe_address // self.config.block_bytes
        index = block % self.config.num_sets
        victim_block = victim_tag * self.config.num_sets + index
        return victim_block * self.config.block_bytes

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)
