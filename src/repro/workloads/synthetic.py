"""Synthetic multithreaded memory-reference generators.

The paper drives its LLC study with NAS Parallel Benchmark traces captured
under COTSon; neither the simulator nor licensed benchmark binaries are
distributable, so this module substitutes parameterized generators whose
*memory behaviour class* is calibrated per application (see
:mod:`repro.workloads.npb`): working-set sizes relative to the L2/L3
capacities, locality skew, memory intensity, instruction mix, and
synchronization density.

Each thread's address stream draws from three regions:

* **hot** -- thread-private, sized to (mostly) fit the private L1/L2;
* **warm** -- shared, the L3-sensitive working set, with a power-law reuse
  skew so progressively larger caches capture progressively more of it;
* **cold** -- a large shared array streamed in OpenMP-style per-thread
  slices, which no realistic cache retains.

Spatial locality is modeled as sequential runs of cache lines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.sim.core import (
    BARRIER, LOCK, READ, WRITE, Event, EventBatch, thread_cpi,
)

#: Cache line size assumed by the generators (bytes).
LINE_BYTES = 64

#: Batch size for vectorized event generation.
_BATCH = 4096

#: Virtual base addresses of the three regions (far apart).
_HOT_BASE = 1 << 40
_WARM_BASE = 1 << 41
_COLD_BASE = 1 << 42

#: Relative distance to an integer below which a warm index is
#: recomputed by the scalar power (thousands of ulps).
_NEAR_INTEGER = 2.0 ** -40


@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs defining one application's memory behaviour class."""

    name: str
    instructions_per_thread: int
    fp_fraction: float
    mem_per_instr: float
    write_fraction: float
    hot_bytes: int  #: per-thread private region
    warm_bytes: int  #: shared L3-sensitive working set
    cold_bytes: int  #: shared streaming region
    p_hot: float
    p_warm: float
    p_cold: float
    warm_skew: float = 1.0  #: >=1; larger concentrates warm reuse
    spatial_run: float = 4.0  #: mean sequential run length in lines
    barriers: int = 20  #: barriers over the whole run
    lock_rate_per_kinstr: float = 0.0
    lock_hold_cycles: int = 50
    num_locks: int = 16

    def __post_init__(self) -> None:
        total = self.p_hot + self.p_warm + self.p_cold
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"region probabilities sum to {total}, not 1")

    @property
    def cpi(self) -> float:
        return thread_cpi(self.fp_fraction)

    def scaled(self, factor: int) -> "WorkloadProfile":
        """Shrink region sizes by ``factor`` (cache-scaling simulation).

        Used together with equally scaled cache capacities so runs stay
        tractable while capacity/working-set relationships are preserved.
        """
        def shrink(nbytes: int) -> int:
            return max(LINE_BYTES * 8, nbytes // factor)

        return replace(
            self,
            hot_bytes=shrink(self.hot_bytes),
            warm_bytes=shrink(self.warm_bytes),
            cold_bytes=shrink(self.cold_bytes),
        )

    def with_instructions(self, count: int) -> "WorkloadProfile":
        return replace(self, instructions_per_thread=count)


def _exact_warm_index(uniforms: list[float], skew: float,
                      warm_lines: int) -> list[int]:
    """Warm indices with Python's scalar ``u ** skew``: the reference
    values, whose last ulp numpy's vectorized power may not match."""
    return [int((u ** skew) * warm_lines) for u in uniforms]


def _warm_index(uniforms: np.ndarray, skew: float,
                warm_lines: int) -> np.ndarray:
    """``int((u ** skew) * warm_lines)`` per element: numpy's power,
    with the values next to an integer -- where a last-ulp difference
    could flip the truncation -- recomputed by the scalar power."""
    scaled = np.power(uniforms, skew) * warm_lines
    index = scaled.astype(np.int64)
    near = np.abs(scaled - np.rint(scaled)) <= scaled * _NEAR_INTEGER
    if near.any():
        index[near] = _exact_warm_index(uniforms[near].tolist(), skew,
                                        warm_lines)
    return index


class _ThreadDraws:
    """One thread's generator state between batches: the RNG, the
    region geometry and the running counters.  :meth:`draw` makes one
    batch of draws and reduces it to an :class:`EventBatch`; nothing
    but the returned columns outlives the call."""

    def __init__(self, profile: WorkloadProfile, thread_id: int,
                 num_threads: int, seed: int):
        # crc32, not hash(): str hashes are salted by PYTHONHASHSEED,
        # which would make "fully seeded" runs differ across sessions
        # and -- under a spawn start method -- between parent and
        # worker processes.
        self.rng = np.random.default_rng(
            (seed, zlib.crc32(profile.name.encode()) & 0xFFFF, thread_id))
        self.profile = profile
        self.hot_lines = max(1, profile.hot_bytes // LINE_BYTES)
        self.warm_lines = max(1, profile.warm_bytes // LINE_BYTES)
        self.cold_lines = max(1, profile.cold_bytes // LINE_BYTES)
        hot_base = _HOT_BASE + thread_id * (profile.hot_bytes + (1 << 24))
        self.hot_line0 = hot_base // LINE_BYTES
        # Streaming slice: each thread walks its own contiguous chunk.
        slice_lines = max(1, self.cold_lines // num_threads)
        self.cold_ptr = thread_id * slice_lines

        self.total_instr = profile.instructions_per_thread
        self.barrier_every = (
            self.total_instr // profile.barriers if profile.barriers
            else None
        )
        self.next_barrier = self.barrier_every or None
        self.lock_prob = profile.lock_rate_per_kinstr / 1000.0
        self.mean_gap = max(1.0, 1.0 / max(profile.mem_per_instr, 1e-9))
        self.run_continue = 1.0 - 1.0 / max(profile.spatial_run, 1.0)
        self.instr_done = 0
        self.prev_line: int | None = None

    @property
    def finished(self) -> bool:
        return self.instr_done >= self.total_instr

    def draw(self) -> EventBatch:
        profile = self.profile
        rng = self.rng
        # The draws keep their order; each is cut to the batch's steps
        # and reduced to what the events need as soon as it is drawn,
        # so at most one float64 draw array is alive at a time.
        gaps = rng.geometric(1.0 / self.mean_gap, _BATCH)
        done = np.cumsum(gaps)
        done += self.instr_done
        # The stream ends at the first step that reaches the budget.
        steps = min(_BATCH, int(np.searchsorted(done, self.total_instr)) + 1)
        done = done[:steps]
        self.instr_done = int(done[-1])
        barrier = self._barriers(done)
        del done
        gaps = gaps[:steps]
        gaps = gaps.astype(np.min_scalar_type(
            max(int(gaps.max()), profile.lock_hold_cycles)))

        regions = rng.random(_BATCH)[:steps]
        hot = regions < profile.p_hot
        near = regions < profile.p_hot + profile.p_warm
        del regions
        writes = (rng.random(_BATCH) < profile.write_fraction)[:steps]
        fresh = rng.random(_BATCH)[:steps] >= self.run_continue
        if self.prev_line is None:
            fresh[0] = True  # the very first step continues no run
        warm = fresh & near & ~hot
        cold = fresh & ~near
        hot &= fresh

        # ext[0] is the previous batch's last line, ext[1 + k] the line
        # of fresh (non-run) step k.
        ext = np.empty(steps + 1, np.int64)
        ext[0] = 0 if self.prev_line is None else self.prev_line
        fresh_lines = ext[1:]
        uniforms = rng.random(_BATCH)[:steps]
        fresh_lines[hot] = self.hot_line0 + (
            uniforms[hot] * self.hot_lines).astype(np.int64)
        fresh_lines[warm] = _WARM_BASE // LINE_BYTES + _warm_index(
            uniforms[warm], profile.warm_skew, self.warm_lines)
        del uniforms
        colds = int(np.count_nonzero(cold))
        fresh_lines[cold] = _COLD_BASE // LINE_BYTES + (
            (self.cold_ptr + np.arange(1, colds + 1)) % self.cold_lines)
        self.cold_ptr = (self.cold_ptr + colds) % self.cold_lines
        # A run step is its chain's first line plus its distance to it;
        # a leading run continues from ext[0].
        index = np.arange(1, steps + 1, dtype=np.int32)
        anchor = np.where(fresh, index, 0).astype(np.int32)
        np.maximum.accumulate(anchor, out=anchor)
        lines = ext[anchor]
        lines += index - anchor
        del ext, anchor
        self.prev_line = int(lines[-1])

        lock = rng.random(_BATCH)[:steps] < self.lock_prob * gaps
        lock_ids = rng.integers(0, profile.num_locks, _BATCH)[:steps][lock]

        # A step's lock row, then its barrier row, follow it.
        extra = lock.astype(np.int32)
        extra += barrier
        step_row = np.cumsum(extra, dtype=np.int32)
        step_row += index - 1 - extra
        rows = steps + int(extra.sum())
        lock_row = step_row[lock] + 1
        kinds = np.full(rows, BARRIER, np.uint8)
        kinds[step_row] = READ
        kinds[step_row[writes]] = WRITE
        kinds[lock_row] = LOCK
        row_gaps = np.zeros(rows, gaps.dtype)
        row_gaps[step_row] = gaps
        row_gaps[lock_row] = profile.lock_hold_cycles
        row_lines = np.zeros(rows, np.int64)
        row_lines[step_row] = lines
        row_lines[lock_row] = lock_ids
        return EventBatch(kinds.tobytes(), memoryview(row_gaps),
                          memoryview(row_lines), LINE_BYTES, profile.cpi)

    def _barriers(self, done: np.ndarray) -> np.ndarray:
        """Flag the steps a barrier follows: the first step whose
        running instruction count reaches each barrier point, at most
        one per step (a point a long step skips falls on the next)."""
        barrier = np.zeros(len(done), bool)
        if self.next_barrier is None:
            return barrier
        k = int(np.searchsorted(done, self.next_barrier))
        while k < len(done):
            barrier[k] = True
            self.next_barrier += self.barrier_every
            k = max(k + 1, int(np.searchsorted(done, self.next_barrier)))
        return barrier


def event_batches(
    profile: WorkloadProfile,
    thread_id: int,
    num_threads: int,
    seed: int = 1234,
) -> Iterator[EventBatch]:
    """Yield one hardware thread's workload as event batches.

    Each batch of ``_BATCH`` steps is drawn as numpy arrays and at once
    reduced to compact columns, one row per event: a kind byte, the
    gaps in the narrowest unsigned dtype that holds them (uint8 or
    uint16 for the NPB profiles) and the lines as int64; a lock row
    holds its hold cycles and lock id in those two columns.  A step's
    cycles are its gap times the batch's CPI.  A suspended generator
    holds its RNG and counters; the batch it yielded holds 10-11 bytes
    an event, 41-45 KB when full.
    """
    draws = _ThreadDraws(profile, thread_id, num_threads, seed)
    while not draws.finished:
        yield draws.draw()


def event_stream(
    profile: WorkloadProfile,
    thread_id: int,
    num_threads: int,
    seed: int = 1234,
) -> Iterator[Event]:
    """Yield the workload event stream for one hardware thread, as the
    event tuples of :mod:`repro.sim.core` read off
    :func:`event_batches`."""
    cpi = profile.cpi
    for kinds, gaps, lines, line_bytes, _, _ in event_batches(
            profile, thread_id, num_threads, seed):
        for i, kind in enumerate(kinds):
            if kind <= WRITE:
                n = gaps[i]
                yield ("step", n, n * cpi, lines[i] * line_bytes,
                       kind == WRITE)
            elif kind == LOCK:
                yield ("lock", lines[i], gaps[i])
            else:
                yield ("barrier",)
