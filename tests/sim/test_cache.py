"""Unit tests for the set-associative MESI cache model.

The cache is addressed by block number (``address // block_bytes``);
the simulator's walk computes it once per reference.
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import cache as cache_module
from repro.sim.cache import Cache, CacheConfig, MesiState


def make(capacity=8192, block=64, assoc=4):
    return Cache(CacheConfig(capacity_bytes=capacity, block_bytes=block,
                             associativity=assoc, access_cycles=2))


class TestBasics:
    def test_miss_then_hit(self):
        c = make()
        assert c.access(0x40, False) is None
        c.fill(0x40, MesiState.EXCLUSIVE)
        assert c.access(0x40, False) is not None

    def test_block_granularity(self):
        """One key per block: a neighbouring block misses, and a block
        one set-count away lands in the same set."""
        c = make(capacity=2 * 64 * 2, assoc=2)  # two sets of two ways
        c.fill(4, MesiState.EXCLUSIVE)
        assert c.access(4, False) is not None
        assert c.access(5, False) is None
        c.fill(6, MesiState.EXCLUSIVE)
        assert c.fill(8, MesiState.EXCLUSIVE) == (4, False)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=1000, block_bytes=64,
                        associativity=4, access_cycles=1)

    def test_write_promotes_exclusive_to_modified(self):
        c = make()
        c.fill(0x40, MesiState.EXCLUSIVE)
        assert c.access(0x40, True) is MesiState.MODIFIED
        assert c.lookup(0x40) is MesiState.MODIFIED

    def test_write_does_not_silently_upgrade_shared(self):
        c = make()
        c.fill(0x40, MesiState.SHARED)
        # coherence must intervene
        assert c.access(0x40, True) is MesiState.SHARED

    def test_read_hit_returns_state_unchanged(self):
        c = make()
        c.fill(0x40, MesiState.EXCLUSIVE)
        assert c.access(0x40, False) is MesiState.EXCLUSIVE

    def test_set_state_only_changes_resident_lines(self):
        c = make()
        c.set_state(0x40, MesiState.MODIFIED)
        assert c.lookup(0x40) is None
        c.fill(0x40, MesiState.SHARED)
        c.set_state(0x40, MesiState.MODIFIED)
        assert c.lookup(0x40) is MesiState.MODIFIED

    @pytest.mark.parametrize("field", ["capacity_bytes", "block_bytes",
                                       "associativity"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_non_positive_geometry_rejected(self, field, value):
        geometry = dict(capacity_bytes=8192, block_bytes=64,
                        associativity=4)
        geometry[field] = value
        with pytest.raises(ValueError, match=field):
            CacheConfig(access_cycles=1, **geometry)

    def test_capacity_below_one_set_rejected(self):
        with pytest.raises(ValueError, match="no set"):
            CacheConfig(capacity_bytes=128, block_bytes=64,
                        associativity=4, access_cycles=1)


class TestLru:
    def test_lru_eviction(self):
        c = make(capacity=2 * 64, block=64, assoc=2)  # one set, 2 ways
        c.fill(0, MesiState.EXCLUSIVE)
        c.fill(1, MesiState.EXCLUSIVE)
        c.access(0, False)  # make way 0 MRU
        victim = c.fill(2, MesiState.EXCLUSIVE)
        assert victim is not None
        victim_block, dirty = victim
        assert victim_block == 1
        assert not dirty

    def test_refill_of_resident_line_makes_it_mru(self):
        c = make(capacity=2 * 64, block=64, assoc=2)
        c.fill(0, MesiState.EXCLUSIVE)
        c.fill(1, MesiState.EXCLUSIVE)
        assert c.fill(0, MesiState.SHARED) is None  # no eviction
        assert c.lookup(0) is MesiState.SHARED
        assert c.fill(2, MesiState.EXCLUSIVE) == (1, False)

    def test_lookup_and_set_state_keep_recency(self):
        c = make(capacity=2 * 64, block=64, assoc=2)
        c.fill(0, MesiState.EXCLUSIVE)
        c.fill(1, MesiState.EXCLUSIVE)
        c.lookup(0)
        c.set_state(0, MesiState.MODIFIED)
        assert c.fill(2, MesiState.EXCLUSIVE) == (0, True)

    def test_hit_deep_in_a_long_set_moves_to_mru(self):
        """In one 24-way set, a hit on the 21st line makes it the last
        to go: the next 23 fills evict every other line, oldest first."""
        c = make(capacity=24 * 64, block=64, assoc=24)
        for block in range(24):
            c.fill(block, MesiState.EXCLUSIVE)
        c.access(20, True)
        victims = [c.fill(block, MesiState.EXCLUSIVE)
                   for block in range(100, 123)]
        assert victims == [(b, False) for b in range(24) if b != 20]
        assert c.fill(123, MesiState.EXCLUSIVE) == (20, True)

    def test_dirty_eviction_flagged(self):
        c = make(capacity=2 * 64, block=64, assoc=2)
        c.fill(0, MesiState.MODIFIED)
        c.fill(1, MesiState.EXCLUSIVE)
        c.access(1, False)
        __, dirty = c.fill(2, MesiState.EXCLUSIVE)
        assert dirty

    def test_victim_address_reconstruction(self):
        """The victim comes back as its block number, the key it was
        filled under, with no address arithmetic."""
        c = make(capacity=64 * 64, block=64, assoc=2)
        block = 0x12340 // 64
        c.fill(block, MesiState.EXCLUSIVE)
        sets = c.config.num_sets
        conflicting = block + sets
        c.fill(conflicting, MesiState.EXCLUSIVE)
        victim = c.fill(conflicting + sets, MesiState.EXCLUSIVE)
        assert victim == (block, False)


class TestInvalidation:
    def test_invalidate_returns_dirty(self):
        c = make()
        c.fill(0x80, MesiState.MODIFIED)
        assert c.invalidate(0x80) is True
        assert c.access(0x80, False) is None

    def test_invalidate_missing_is_noop(self):
        c = make()
        assert c.invalidate(0x80) is False


class TestCapacity:
    def test_occupancy_bounded(self):
        c = make(capacity=4096, block=64, assoc=4)
        for block in range(1000):
            c.fill(block, MesiState.EXCLUSIVE)
        assert c.occupancy() <= 4096 // 64

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                    max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_invariant_under_random_traffic(self, blocks):
        c = make(capacity=2048, block=64, assoc=2)
        for b in blocks:
            if c.access(b, False) is None:
                c.fill(b, MesiState.EXCLUSIVE)
        assert c.occupancy() <= 2048 // 64
        # Every filled line is findable.
        assert c.lookup(blocks[-1]) is not None

    def test_miss_rate_tracks(self):
        c = make()
        c.access(0, False)
        c.fill(0, MesiState.EXCLUSIVE)
        c.access(0, False)
        assert (c.hits, c.misses) == (1, 1)

    def test_working_set_fit_gives_high_hit_rate(self):
        """A working set within capacity converges to ~100 % hits."""
        c = make(capacity=64 * 1024, block=64, assoc=8)
        lines = list(range(512))  # 32 KB working set
        for _ in range(4):
            for a in lines:
                if c.access(a, False) is None:
                    c.fill(a, MesiState.EXCLUSIVE)
        c.hits = c.misses = 0
        for a in lines:
            c.access(a, False)
        assert c.misses == 0


class TestFootprint:
    def test_churn_does_not_grow_a_full_set(self):
        """A full 24-way set keeps its footprint through ~10k
        access/fill calls on its blocks.

        A set that keeps LRU order by popping and re-inserting dict keys
        ends up sized for three times its lines (1,168 B full, 2,264 B
        churned).  Counted are the bytes allocated by the cache module;
        the blocks exist beforehand, and a first churn of another cache
        lets the interpreter settle its own per-code caches.  The hit
        and miss counters outgrow the small-int cache on the way, so
        their two ints are allowed on top.
        """
        ways = 24
        pool = [1000 + k for k in range(2 * ways)]  # one set: num_sets == 1
        rng = random.Random(7)
        order = [rng.choice(pool) for _ in range(6500)]

        def filled_set():
            c = make(capacity=ways * 64, block=64, assoc=ways)
            for block in pool[:ways]:
                c.fill(block, MesiState.EXCLUSIVE)
            return c

        def churn(c):
            for block in order:
                if c.access(block, False) is None:
                    c.fill(block, MesiState.SHARED)

        def cache_bytes():
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, cache_module.__file__)])
            return sum(trace.size for trace in snapshot.traces)

        churn(filled_set())
        tracemalloc.start()
        try:
            c = filled_set()
            filled = cache_bytes()
            churn(c)
            churned = cache_bytes()
        finally:
            tracemalloc.stop()
        assert c.occupancy() == ways
        assert c.misses > 1000 and c.hits > 1000
        counters = sys.getsizeof(c.hits) + sys.getsizeof(c.misses)
        assert churned <= 1.1 * filled + counters, (filled, churned)
