"""MESI coherence across the private per-core L2 caches.

The paper's target system keeps L1/L2 private per core with a MESI
protocol (section 3.3); the shared L3 (when present) acts as the ordering
point.  This simplified directory tracks, per block, which cores may hold
it, and resolves reads and writes into the MESI actions and their latency
cost: cache-to-cache transfers for dirty data, invalidation rounds for
upgrades.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.sim.cache import Cache, MesiState

_MODIFIED = MesiState.MODIFIED
_SHARED = MesiState.SHARED


class CoherenceOutcome(NamedTuple):
    """Result of a coherence resolution for one request."""

    source_core: int | None  #: core that supplied dirty data, if any
    invalidated: int  #: number of remote copies invalidated
    writeback: bool  #: a dirty copy was written back toward memory


#: The outcome when no other core holds the block.
_NO_PEERS = CoherenceOutcome(source_core=None, invalidated=0, writeback=False)


def _cores(mask: int) -> Iterator[int]:
    """The core indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class MesiDirectory:
    """Directory-style MESI over the private L2s.

    Tracks a sharer bitmask per block number (the same int the caches key
    their lines by).  The caches themselves hold the authoritative line
    states; the directory avoids snooping every L2 on every access.
    """

    def __init__(self, l2s: list[Cache]):
        self._l2s = l2s
        self._sharers: dict[int, int] = {}

    def sharers(self, block: int, exclude: int | None = None) -> list[int]:
        """The cores the directory records as holding ``block``.

        An introspection API for tests: the simulator's requests work on
        the sharer mask directly and never call this.
        """
        mask = self._sharers.get(block, 0)
        if exclude is not None:
            mask &= ~(1 << exclude)
        return list(_cores(mask))

    # ------------------------------------------------------------------ #

    def read(self, core: int, block: int) -> CoherenceOutcome:
        """Core ``core`` misses its L2 on a read; resolve against peers."""
        mask = self._sharers.get(block, 0)
        others = mask & ~(1 << core)
        if not others:
            self._sharers[block] = mask | (1 << core)
            return _NO_PEERS
        source_core = None
        writeback = False
        for peer in _cores(others):
            l2 = self._l2s[peer]
            state = l2.lookup(block)
            if state is None:
                mask &= ~(1 << peer)  # stale entry: the peer lost the line
                continue
            if state is _MODIFIED:
                # Dirty data supplied cache-to-cache; both become SHARED.
                writeback = True
            if state is not _SHARED:
                l2.set_state(block, _SHARED)
            if source_core is None:
                source_core = peer
        self._sharers[block] = mask | (1 << core)
        return CoherenceOutcome(source_core, 0, writeback)

    def write(self, core: int, block: int) -> CoherenceOutcome:
        """Core ``core`` wants exclusive ownership; invalidate peers."""
        others = self._sharers.get(block, 0) & ~(1 << core)
        self._sharers[block] = 1 << core
        if not others:
            return _NO_PEERS
        source_core = None
        writeback = False
        invalidated = 0
        for peer in _cores(others):
            l2 = self._l2s[peer]
            state = l2.lookup(block)
            if state is None:
                continue
            if state is _MODIFIED:
                source_core = peer
                writeback = True
            l2.invalidate(block)
            invalidated += 1
        return CoherenceOutcome(source_core, invalidated, writeback)

    def evicted(self, core: int, block: int) -> None:
        mask = self._sharers.get(block, 0) & ~(1 << core)
        if mask:
            self._sharers[block] = mask
        else:
            self._sharers.pop(block, None)

    def forget(self, block: int) -> None:
        """No core holds the block any more (inclusive-L3 eviction)."""
        self._sharers.pop(block, None)

    def state_for_fill(self, core: int, block: int, is_write: bool
                       ) -> MesiState:
        """MESI state for a newly filled line."""
        if is_write:
            return _MODIFIED
        others = self._sharers.get(block, 0) & ~(1 << core)
        return _SHARED if others else MesiState.EXCLUSIVE
