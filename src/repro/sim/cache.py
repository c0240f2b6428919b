"""Set-associative cache model with MESI line states.

A functional cache with LRU replacement, used for every level of the
simulated hierarchy.  Lines carry MESI states so the coherence protocol in
:mod:`repro.sim.coherence` can track sharing across the private L2s.

Every method takes the line's *block number* (``address //
block_bytes``), which :class:`repro.sim.system.System` computes once per
reference and hands to every level.  Each set, ``block % num_sets``, is
two short lists in LRU order: the resident block numbers and, at the
same positions, their :class:`MesiState`.  Index 0 is the least recently
used line, the victim a fill into a full set evicts and returns as is;
an ``access`` hit and a ``fill`` move their line to the end.
``lookup``, ``set_state`` and ``invalidate`` never reorder.

Why lists and not a ``dict`` per set: keeping LRU order as a dict's
insertion order pops and re-inserts a key on every hit and fill, and
CPython sizes a churned dict for three times its live entries (a full
24-way set grew from 1,168 B to 2,264 B), while a DRAM-cache L3 has
thousands of sparse sets.  A list never rehashes: a set costs two list
headers and about 16 B per line, however long it churns.  The price is
a probe of at most ``associativity`` comparisons, so ``fill`` skips it
for the block the last ``access`` missed: only ``fill`` installs lines.
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
        #: Per set, its resident blocks from LRU (index 0) to MRU ...
        self._blocks: list[list[int]] = [[] for _ in range(self._nsets)]
        #: ... and their states, position for position.
        self._states: list[list[MesiState]] = [
            [] for _ in range(self._nsets)
        ]
        #: The block the last missing ``access`` was called with, until
        #: the next ``fill``: it cannot be resident before then.
        self._missed: int | None = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #

    def lookup(self, block: int) -> MesiState | None:
        """The line's state, or None; never updates recency (for
        coherence snoops)."""
        s = block % self._nsets
        blocks = self._blocks[s]
        if block in blocks:
            return self._states[s][blocks.index(block)]
        return None

    def access(self, block: int, is_write: bool) -> MesiState | None:
        """Probe and update recency; returns the line's state on a hit,
        else None.

        A write hit promotes EXCLUSIVE to MODIFIED.  A write hit on a
        SHARED line does *not* silently upgrade -- the coherence layer
        must invalidate other sharers first and then call
        :meth:`set_state`.
        """
        s = block % self._nsets
        blocks = self._blocks[s]
        if block not in blocks:
            self.misses += 1
            self._missed = block
            return None
        self.hits += 1
        states = self._states[s]
        i = blocks.index(block)
        del blocks[i]
        blocks.append(block)
        state = states.pop(i)
        if is_write and state is _EXCLUSIVE:
            state = _MODIFIED
        states.append(state)
        return state

    def fill(self, block: int, state: MesiState) -> tuple[int, bool] | None:
        """Install a line as most recently used; returns
        (victim_block, was_dirty) if one was evicted, else None."""
        s = block % self._nsets
        blocks = self._blocks[s]
        states = self._states[s]
        # Identity, not equality: the walk fills the very int it missed
        # with; any other int takes the probe.
        missed, self._missed = self._missed, None
        if block is not missed and block in blocks:
            i = blocks.index(block)
            del blocks[i]
            del states[i]
        elif len(blocks) >= self._assoc:
            victim = blocks.pop(0)
            dirty = states.pop(0) is _MODIFIED
            blocks.append(block)
            states.append(state)
            return victim, dirty
        blocks.append(block)
        states.append(state)
        return None

    def invalidate(self, block: int) -> bool:
        """Drop a line (coherence); returns True if it was dirty."""
        s = block % self._nsets
        blocks = self._blocks[s]
        if block not in blocks:
            return False
        i = blocks.index(block)
        del blocks[i]
        return self._states[s].pop(i) is _MODIFIED

    def set_state(self, block: int, state: MesiState) -> None:
        """Change a resident line's state without touching recency."""
        s = block % self._nsets
        blocks = self._blocks[s]
        if block in blocks:
            self._states[s][blocks.index(block)] = state

    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Number of resident lines (for capacity tests)."""
        return sum(map(len, self._blocks))
