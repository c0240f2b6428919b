"""Reference oracle for :func:`repro.workloads.synthetic.event_stream`.

The generator as it was written before the hot-path rewrite: each batch
keeps all seven numpy draw arrays alive and every event reads its
region, run, write and lock decisions straight from them, element by
element.  ``tests/workloads/test_stream_equivalence.py`` requires the
rewritten generator to yield exactly the same events.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

from repro.sim.core import Event
from repro.workloads.synthetic import (
    _BATCH,
    _COLD_BASE,
    _HOT_BASE,
    _WARM_BASE,
    LINE_BYTES,
    WorkloadProfile,
)


def reference_event_stream(
    profile: WorkloadProfile,
    thread_id: int,
    num_threads: int,
    seed: int = 1234,
) -> Iterator[Event]:
    """Yield the workload event stream for one hardware thread, one
    numpy element at a time."""
    # crc32, not hash(): str hashes are salted by PYTHONHASHSEED, which
    # would make "fully seeded" runs differ across sessions and -- under
    # a spawn start method -- between parent and worker processes.
    rng = np.random.default_rng((seed, zlib.crc32(profile.name.encode())
                                 & 0xFFFF, thread_id))
    hot_lines = max(1, profile.hot_bytes // LINE_BYTES)
    warm_lines = max(1, profile.warm_bytes // LINE_BYTES)
    cold_lines = max(1, profile.cold_bytes // LINE_BYTES)
    hot_base = _HOT_BASE + thread_id * (profile.hot_bytes + (1 << 24))

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
        uniforms = rng.random(_BATCH)
        locks = rng.random(_BATCH)
        lock_ids = rng.integers(0, profile.num_locks, _BATCH)

        for i in range(_BATCH):
            if instr_done >= total_instr:
                return
            n = int(gaps[i])
            instr_done += n

            if prev_line is not None and runs[i] < run_continue:
                line = prev_line + 1
            else:
                r = regions[i]
                u = uniforms[i]
                if r < profile.p_hot:
                    line = hot_base // LINE_BYTES + int(u * hot_lines)
                elif r < profile.p_hot + profile.p_warm:
                    idx = int((u ** profile.warm_skew) * warm_lines)
                    line = _WARM_BASE // LINE_BYTES + idx
                else:
                    cold_ptr = (cold_ptr + 1) % cold_lines
                    line = _COLD_BASE // LINE_BYTES + cold_ptr
            prev_line = line
            yield ("step", n, n * profile.cpi, line * LINE_BYTES,
                   bool(writes[i]))

            if lock_prob and locks[i] < lock_prob * n:
                yield ("lock", int(lock_ids[i]), profile.lock_hold_cycles)
            if next_barrier is not None and instr_done >= next_barrier:
                next_barrier += barrier_every
                yield ("barrier",)
