"""Unit tests for the MESI directory.

The directory and the caches are keyed by block number.
"""

from repro.sim.cache import Cache, CacheConfig, MesiState
from repro.sim.coherence import MesiDirectory


def setup():
    cfg = CacheConfig(capacity_bytes=8192, block_bytes=64, associativity=4,
                      access_cycles=3)
    l2s = [Cache(cfg) for _ in range(4)]
    return l2s, MesiDirectory(l2s)


class TestRead:
    def test_first_reader_gets_exclusive(self):
        l2s, d = setup()
        outcome = d.read(0, 0x100)
        assert outcome.source_core is None
        assert d.state_for_fill(0, 0x100, False) is MesiState.EXCLUSIVE

    def test_second_reader_shares_and_demotes(self):
        l2s, d = setup()
        d.read(0, 0x100)
        l2s[0].fill(0x100, MesiState.EXCLUSIVE)
        outcome = d.read(1, 0x100)
        assert outcome.source_core == 0
        assert l2s[0].lookup(0x100) is MesiState.SHARED
        assert not outcome.writeback

    def test_read_of_modified_forces_writeback(self):
        l2s, d = setup()
        d.write(0, 0x100)
        l2s[0].fill(0x100, MesiState.MODIFIED)
        outcome = d.read(1, 0x100)
        assert outcome.source_core == 0
        assert outcome.writeback
        assert l2s[0].lookup(0x100) is MesiState.SHARED


class TestWrite:
    def test_write_invalidates_sharers(self):
        l2s, d = setup()
        for core in (0, 1, 2):
            d.read(core, 0x200)
            l2s[core].fill(0x200, MesiState.SHARED)
        outcome = d.write(3, 0x200)
        assert outcome.invalidated == 3
        for core in (0, 1, 2):
            assert l2s[core].lookup(0x200) is None
        assert d.sharers(0x200) == [3]

    def test_write_to_modified_peer_writes_back(self):
        l2s, d = setup()
        d.write(0, 0x200)
        l2s[0].fill(0x200, MesiState.MODIFIED)
        outcome = d.write(1, 0x200)
        assert outcome.writeback
        assert outcome.source_core == 0
        assert l2s[0].lookup(0x200) is None

    def test_fill_state_for_write_is_modified(self):
        __, d = setup()
        assert d.state_for_fill(0, 0x300, True) is MesiState.MODIFIED


class TestEviction:
    def test_eviction_clears_directory(self):
        l2s, d = setup()
        d.read(0, 0x400)
        l2s[0].fill(0x400, MesiState.EXCLUSIVE)
        d.evicted(0, 0x400)
        assert d.sharers(0x400) == []

    def test_sharers_listed_lowest_core_first(self):
        l2s, d = setup()
        for core in (3, 0, 2):
            d.read(core, 0x600)
            l2s[core].fill(0x600, MesiState.SHARED)
        assert d.sharers(0x600) == [0, 2, 3]
        assert d.sharers(0x600, exclude=2) == [0, 3]

    def test_read_sources_from_lowest_holding_peer(self):
        l2s, d = setup()
        d.read(1, 0x700)
        l2s[1].fill(0x700, MesiState.EXCLUSIVE)
        d.read(2, 0x700)
        l2s[2].fill(0x700, MesiState.SHARED)
        outcome = d.read(0, 0x700)
        assert outcome.source_core == 1
        assert l2s[1].lookup(0x700) is MesiState.SHARED
        assert d.sharers(0x700) == [0, 1, 2]

    def test_forget_drops_every_sharer(self):
        l2s, d = setup()
        for core in (0, 2):
            d.read(core, 0x400)
        d.forget(0x400)
        assert d.sharers(0x400) == []
        assert d.state_for_fill(1, 0x400, False) is MesiState.EXCLUSIVE

    def test_stale_directory_entry_self_heals(self):
        """If an L2 silently lost a line, the directory cleans up on the
        next request instead of crashing."""
        l2s, d = setup()
        d.read(0, 0x500)  # marked, but never filled into the cache
        outcome = d.read(1, 0x500)
        assert outcome.source_core is None
        assert d.sharers(0x500, exclude=1) == []
