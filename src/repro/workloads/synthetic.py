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

from repro.sim.core import Event, thread_cpi

#: Cache line size assumed by the generators (bytes).
LINE_BYTES = 64

#: Batch size for vectorized event generation.
_BATCH = 4096

#: Virtual base addresses of the three regions (far apart).
_HOT_BASE = 1 << 40
_WARM_BASE = 1 << 41
_COLD_BASE = 1 << 42


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


#: Per-event decision bits of a drawn batch, one flag byte per event.
_WARM = 1  #: region: warm if set, cold if _COLD is set, else hot
_COLD = 2
_RUN = 4  #: continue the sequential run from the previous line
_WRITE = 8
_LOCK = 16


def event_stream(
    profile: WorkloadProfile,
    thread_id: int,
    num_threads: int,
    seed: int = 1234,
) -> Iterator[Event]:
    """Yield the workload event stream for one hardware thread.

    Each batch of ``_BATCH`` events is drawn as numpy arrays and at once
    reduced to compact per-event data -- a flag byte, the instruction
    gap, the uniform and the ids of the batch's locks -- so a suspended
    generator holds about 70 KB, not every draw array.
    """
    # crc32, not hash(): str hashes are salted by PYTHONHASHSEED, which
    # would make "fully seeded" runs differ across sessions and -- under
    # a spawn start method -- between parent and worker processes.
    rng = np.random.default_rng((seed, zlib.crc32(profile.name.encode())
                                 & 0xFFFF, thread_id))
    hot_lines = max(1, profile.hot_bytes // LINE_BYTES)
    warm_lines = max(1, profile.warm_bytes // LINE_BYTES)
    cold_lines = max(1, profile.cold_bytes // LINE_BYTES)
    hot_base = _HOT_BASE + thread_id * (profile.hot_bytes + (1 << 24))
    hot_line0 = hot_base // LINE_BYTES
    warm_line0 = _WARM_BASE // LINE_BYTES
    cold_line0 = _COLD_BASE // LINE_BYTES
    warm_skew = profile.warm_skew
    cpi = profile.cpi
    lock_hold = profile.lock_hold_cycles

    # Streaming slice: each thread walks its own contiguous chunk.
    slice_lines = max(1, cold_lines // num_threads)
    cold_ptr = thread_id * slice_lines

    total_instr = profile.instructions_per_thread
    barrier_every = (
        total_instr // profile.barriers if profile.barriers else None
    )
    lock_prob = profile.lock_rate_per_kinstr / 1000.0

    instr_done = 0
    next_barrier = barrier_every if barrier_every else None
    mean_gap = max(1.0, 1.0 / max(profile.mem_per_instr, 1e-9))
    run_continue = 1.0 - 1.0 / max(profile.spatial_run, 1.0)
    prev_line: int | None = None

    while instr_done < total_instr:
        gaps = rng.geometric(1.0 / mean_gap, _BATCH)
        regions = rng.random(_BATCH)
        writes = rng.random(_BATCH) < profile.write_fraction
        runs = rng.random(_BATCH)
        # Kept as float64: the warm index needs the scalar ``u ** skew``
        # of each element; a memoryview reads them as Python floats.
        uniforms = memoryview(rng.random(_BATCH))
        locks = rng.random(_BATCH)
        lock_ids = rng.integers(0, profile.num_locks, _BATCH)
        # The same float64 comparisons the per-event decisions make, done
        # per batch; only the flag bytes, the gaps, the uniforms and the
        # ids of the batch's locks outlive this block.
        flags = np.where(
            regions < profile.p_hot, 0,
            np.where(regions < profile.p_hot + profile.p_warm, _WARM, _COLD),
        ).astype(np.uint8)
        flags[runs < run_continue] |= _RUN
        flags[writes] |= _WRITE
        lock_mask = locks < lock_prob * gaps
        flags[lock_mask] |= _LOCK
        flags = flags.tobytes()
        batch_locks = iter(lock_ids[lock_mask].tolist())
        gaps = gaps.tolist()
        del regions, writes, runs, locks, lock_ids, lock_mask

        for i in range(_BATCH):
            if instr_done >= total_instr:
                return
            n = gaps[i]
            instr_done += n
            f = flags[i]

            if prev_line is not None and f & _RUN:
                line = prev_line + 1
            elif f & _WARM:
                line = warm_line0 + int((uniforms[i] ** warm_skew)
                                        * warm_lines)
            elif f & _COLD:
                cold_ptr = (cold_ptr + 1) % cold_lines
                line = cold_line0 + cold_ptr
            else:
                line = hot_line0 + int(uniforms[i] * hot_lines)
            prev_line = line
            yield ("step", n, n * cpi, line * LINE_BYTES,
                   (f & _WRITE) != 0)

            if f & _LOCK:
                yield ("lock", next(batch_locks), lock_hold)
            if next_barrier is not None and instr_done >= next_barrier:
                next_barrier += barrier_every
                yield ("barrier",)
