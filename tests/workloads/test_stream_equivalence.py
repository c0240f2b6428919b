"""The column generator against its per-element oracle.

``event_batches`` reduces each drawn batch to typed columns at once --
kind bytes, gaps, lines and lock ids, with the lines computed in numpy
-- and ``event_stream`` reads event tuples off them;
``reference_event_stream`` reads every decision straight from the numpy
draws, one element at a time.  Both make the same RNG draws, so every
event of every thread must be identical, column for column and tuple
for tuple -- including the lock events of the lock-heavy profiles and
the batch boundaries.
"""

import dataclasses

import numpy as np
import pytest

from repro.sim.core import BARRIER, LOCK, READ, WRITE
from repro.workloads import synthetic
from repro.workloads.micro import MICRO_PROFILES
from repro.workloads.npb import NPB_PROFILES, UA_C
from repro.workloads.synthetic import (
    _BATCH,
    LINE_BYTES,
    WorkloadProfile,
    event_batches,
    event_stream,
)
from tests.workloads.reference_stream import reference_event_stream


def two_batches(profile):
    """Instructions per thread that span more than two batches of draws."""
    mean_gap = max(1.0, 1.0 / profile.mem_per_instr)
    return int(2.5 * _BATCH * mean_gap)


#: Gaps past uint16 (a mean of 100 000 instructions between
#: references), and barrier points closer than one gap, so most steps
#: reach a barrier point and some skip one.
SPARSE = WorkloadProfile(
    name="sparse", instructions_per_thread=0, fp_fraction=0.3,
    mem_per_instr=1e-5, write_fraction=0.3, hot_bytes=64 << 10,
    warm_bytes=1 << 20, cold_bytes=8 << 20, p_hot=0.3, p_warm=0.4,
    p_cold=0.3, barriers=30_000, lock_rate_per_kinstr=0.00002,
)

#: A warm set of 2**52 lines: every warm index is ``u ** skew`` scaled
#: by a power of two, so a last-ulp difference in the power moves it,
#: and every value is recomputed by the scalar power.
NEAR_INTEGER = WorkloadProfile(
    name="near-integer", instructions_per_thread=0, fp_fraction=0.5,
    mem_per_instr=0.5, write_fraction=0.2, hot_bytes=4 << 10,
    warm_bytes=1 << 58, cold_bytes=1 << 20, p_hot=0.05, p_warm=0.9,
    p_cold=0.05, warm_skew=1.7, spatial_run=1.0, barriers=3,
)


def reference_columns(events):
    """The columns an event-tuple stream stands for: kinds, then the
    gap and line of each step and the hold and id of each lock."""
    kinds, gaps, lines, lock_ids = [], [], [], []
    for event in events:
        if event[0] == "step":
            _, n, _, address, is_write = event
            kinds.append(WRITE if is_write else READ)
            gaps.append(n)
            lines.append(address // LINE_BYTES)
        elif event[0] == "lock":
            kinds.append(LOCK)
            lock_ids.append((event[1], event[2]))
        else:
            kinds.append(BARRIER)
    return kinds, gaps, lines, lock_ids


def batch_columns(batches):
    kinds, gaps, lines, lock_ids = [], [], [], []
    for batch in batches:
        for i, kind in enumerate(batch.kinds):
            kinds.append(kind)
            if kind <= WRITE:
                gaps.append(batch.gaps[i])
                lines.append(batch.lines[i])
            elif kind == LOCK:
                lock_ids.append((batch.lines[i], batch.gaps[i]))
    return kinds, gaps, lines, lock_ids


def assert_compact(batch, profile):
    """What a batch holds: bytes and memoryviews, no Python list of
    lines and no float cycles column."""
    assert isinstance(batch.kinds, bytes)
    assert batch.lines.format in ("l", "q") and batch.lines.itemsize == 8
    steps = [i for i, k in enumerate(batch.kinds) if k <= WRITE]
    widest = max(max(batch.gaps[i] for i in steps),
                 profile.lock_hold_cycles)
    assert batch.gaps.itemsize == np.min_scalar_type(widest).itemsize
    assert batch.cpi == profile.cpi and batch.cycles is None
    assert batch.line_bytes == LINE_BYTES


PROFILES = [*NPB_PROFILES, *MICRO_PROFILES]


@pytest.mark.parametrize("seed", [1, 7, 1234])
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_identical_columns(profile, seed):
    scaled = profile.scaled(16).with_instructions(two_batches(profile))
    for tid in (0, 5):
        batches = list(event_batches(scaled, tid, 32, seed=seed))
        for batch in batches:
            assert_compact(batch, scaled)
        want = reference_columns(
            reference_event_stream(scaled, tid, 32, seed=seed))
        assert batch_columns(batches) == want
        assert len(want[1]) > 2 * _BATCH


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


@pytest.mark.parametrize("seed", [1, 7])
def test_gaps_past_uint16(seed):
    """Sparse references widen the gap column; a step that passes
    several barrier points still yields one barrier, as the oracle
    does."""
    profile = SPARSE.with_instructions(two_batches(SPARSE))
    batches = list(event_batches(profile, 2, 32, seed=seed))
    assert {b.gaps.itemsize for b in batches} == {4}
    for batch in batches:
        assert_compact(batch, profile)
    events = list(reference_event_stream(profile, 2, 32, seed=seed))
    got = batch_columns(batches)
    assert got == reference_columns(events)
    assert max(got[1]) > np.iinfo(np.uint16).max
    barriers = sum(e[0] == "barrier" for e in events)
    assert 0 < barriers < profile.barriers
    assert any(e[0] == "lock" for e in events)
    assert list(event_stream(profile, 2, 32, seed=seed)) == events


def test_warm_index_at_integer_boundaries():
    profile = NEAR_INTEGER.with_instructions(2 * _BATCH)
    want = reference_columns(reference_event_stream(profile, 1, 4, seed=5))
    assert batch_columns(event_batches(profile, 1, 4, seed=5)) == want


def test_numpy_power_would_change_the_lines(monkeypatch):
    """The scalar recompute is what makes the warm lines exact: with
    numpy's vectorized power in its place the columns change."""
    profile = NEAR_INTEGER.with_instructions(2 * _BATCH)
    want = reference_columns(reference_event_stream(profile, 1, 4, seed=5))

    def numpy_power(uniforms, skew, warm_lines):
        return (np.power(np.array(uniforms), skew) * warm_lines
                ).astype(np.int64).tolist()

    monkeypatch.setattr(synthetic, "_exact_warm_index", numpy_power)
    got = batch_columns(event_batches(profile, 1, 4, seed=5))
    if got == want:
        pytest.skip("numpy's power matches the scalar one on these draws "
                    "on this platform")
    assert got[0] == want[0] and got[2] != want[2]


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


def test_no_barriers_and_no_locks():
    profile = dataclasses.replace(UA_C, barriers=0, lock_rate_per_kinstr=0.0,
                                  instructions_per_thread=3000)
    kinds = b"".join(b.kinds for b in event_batches(profile, 0, 2, seed=2))
    assert set(kinds) <= {READ, WRITE}
    assert list(event_stream(profile, 0, 2, seed=2)) == list(
        reference_event_stream(profile, 0, 2, seed=2))
