"""The compact-batch event generator against its per-element oracle.

``event_stream`` reduces each drawn batch to flag bytes, gaps, uniforms
and lock ids before yielding from it; ``reference_event_stream`` reads
every decision straight from the numpy draws.  Both make the same RNG
draws, so every event of every thread must be identical -- including
the lock events of the lock-heavy profiles and the batch boundaries.
"""

import pytest

from repro.workloads.npb import NPB_PROFILES, UA_C
from repro.workloads.synthetic import _BATCH, event_stream
from tests.workloads.reference_stream import reference_event_stream


def two_batches(profile):
    """Instructions per thread that span more than two batches of draws."""
    mean_gap = max(1.0, 1.0 / profile.mem_per_instr)
    return int(2.5 * _BATCH * mean_gap)


@pytest.mark.parametrize("seed", [1, 7, 1234])
@pytest.mark.parametrize("profile", NPB_PROFILES, ids=lambda p: p.name)
def test_identical_events(profile, seed):
    scaled = profile.scaled(16).with_instructions(two_batches(profile))
    for tid in (0, 5):
        got = list(event_stream(scaled, tid, 32, seed=seed))
        want = list(reference_event_stream(scaled, tid, 32, seed=seed))
        assert got == want
        assert sum(e[0] == "step" for e in got) > 2 * _BATCH
        assert [tuple(map(type, e)) for e in got] == [
            tuple(map(type, e)) for e in want]


def test_lock_events_covered():
    """ua.C is the lock-heavy class: its streams must take the lock path."""
    scaled = UA_C.scaled(16).with_instructions(two_batches(UA_C))
    events = list(event_stream(scaled, 3, 32, seed=1))
    locks = [e for e in events if e[0] == "lock"]
    assert len(locks) > 10
    assert locks == [
        e for e in reference_event_stream(scaled, 3, 32, seed=1)
        if e[0] == "lock"
    ]


def test_single_thread_partial_batch():
    """A budget that ends mid-batch stops at the same event."""
    scaled = UA_C.with_instructions(1000)
    assert list(event_stream(scaled, 0, 1, seed=3)) == list(
        reference_event_stream(scaled, 0, 1, seed=3))
