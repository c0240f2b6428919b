"""The list-ordered cache against its per-line-tick oracle.

:class:`repro.sim.cache.Cache` keeps each set's LRU order as the order
of two short lists; ``tests/sim/reference_cache.py`` keeps a
``last_use`` tick on every line and evicts the minimum.  Random
``access``/``fill``/``invalidate``/``set_state``/``lookup`` sequences,
with the simulator's access-then-fill-on-miss among them, must give
identical hits, misses, victims, dirty flags and states.  The oracle
takes byte addresses and splits them into set and tag; the cache takes
the block number the simulator's walk computes, and returns its victim
as a block number.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, CacheConfig, MesiState
from tests.sim.reference_cache import ReferenceCache

STATES = list(MesiState)

#: Few sets, few ways and a small address space, so sets fill, evict
#: and refill often.  The last two have the study's L3 associativities
#: (12 and 24 ways): 64 blocks over 3 sets, and 128 over 2.
CONFIGS = [
    CacheConfig(capacity_bytes=4 * 64, block_bytes=64, associativity=4,
                access_cycles=1),
    CacheConfig(capacity_bytes=8 * 2 * 32, block_bytes=32, associativity=2,
                access_cycles=1),
    CacheConfig(capacity_bytes=3 * 8 * 64, block_bytes=64, associativity=8,
                access_cycles=1),
    CacheConfig(capacity_bytes=3 * 12 * 64, block_bytes=64,
                associativity=12, access_cycles=1),
    CacheConfig(capacity_bytes=2 * 24 * 32, block_bytes=32,
                associativity=24, access_cycles=1),
]

#: ``walk`` is the simulator's own pattern: an access, then a fill when it
#: misses, so sets churn through evictions and MRU moves.
operation = st.tuples(
    st.sampled_from(["access", "fill", "invalidate", "set_state", "lookup",
                     "walk"]),
    st.integers(min_value=0, max_value=64 * 64 - 1),
    st.booleans(),
    st.sampled_from(STATES),
)


def state_of(line):
    return None if line is None else line.state


def victim_block(victim, block_bytes):
    """The oracle's (victim_address, dirty) as (victim_block, dirty)."""
    return None if victim is None else (victim[0] // block_bytes, victim[1])


@given(st.sampled_from(CONFIGS), st.booleans(),
       st.lists(operation, min_size=20, max_size=400))
@settings(max_examples=200, deadline=None)
def test_same_outcomes_as_reference(config, start_full, operations):
    cache, ref = Cache(config), ReferenceCache(config)
    block_bytes = config.block_bytes
    if start_full:
        # Fill every way of every set first, so that in long sets too
        # the first fill of another block evicts.
        lines = config.capacity_bytes // block_bytes
        operations = [
            ("fill", block * block_bytes, False, STATES[block % len(STATES)])
            for block in range(lines)
        ] + operations
    for name, address, is_write, state in operations:
        block = address // block_bytes
        if name == "access":
            assert cache.access(block, is_write) is state_of(
                ref.access(address, is_write))
        elif name == "walk":
            hit = cache.access(block, is_write)
            assert hit is state_of(ref.access(address, is_write))
            if hit is None:
                assert cache.fill(block, state) == victim_block(
                    ref.fill(address, state), block_bytes)
        elif name == "fill":
            assert cache.fill(block, state) == victim_block(
                ref.fill(address, state), block_bytes)
        elif name == "invalidate":
            assert cache.invalidate(block) == ref.invalidate(address)
        elif name == "set_state":
            cache.set_state(block, state)
            ref.set_state(address, state)
        else:
            assert cache.lookup(block) is state_of(ref.lookup(address))
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    assert cache.occupancy() == ref.occupancy()
    for address in range(0, 64 * 64, block_bytes):
        assert cache.lookup(address // block_bytes) is state_of(
            ref.lookup(address))
