"""Core and thread model (paper section 3.3).

Each simulated core runs four hardware threads concurrently.  Following
the paper's timing recipe: a thread executes one floating-point arithmetic
instruction per cycle (modeling the 4-way SIMD FPU) and all other
instructions at four cycles each on average, with up to one memory request
per cycle issued to the L1.  Threads are in-order and block on memory.

A thread's workload reaches the simulator as :class:`EventBatch`
columns, one row per event, whose kind byte is one of:

* ``READ`` / ``WRITE`` -- a step: retire ``gaps[i]`` instructions, then
  make one memory reference to ``lines[i] * line_bytes``;
* ``COMPUTE`` -- retire ``gaps[i]`` instructions, no reference;
* ``LOCK`` -- a critical section on lock ``lines[i]`` held for
  ``gaps[i]`` cycles;
* ``BARRIER`` -- a global barrier across all threads.

:func:`repro.workloads.synthetic.event_batches` draws such batches;
:func:`as_batches` turns an iterable of event tuples into them:

* ``("step", instructions, cycles, address, is_write)``
* ``("compute", instructions, cycles)`` -- retire instructions.
* ``("mem", address, is_write)`` -- one memory reference.
* ``("barrier",)`` -- global barrier across all threads.
* ``("lock", lock_id, hold_cycles)`` -- critical section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.sim.stats import CycleBreakdown

#: CPI of floating-point arithmetic (SIMD, one per cycle).
FP_CPI = 1.0

#: Average CPI of all other instructions.
OTHER_CPI = 4.0

#: Row kinds of an :class:`EventBatch`, ordered so that ``kind <=
#: COMPUTE`` marks the rows that retire instructions and ``kind <=
#: WRITE`` the steps, whose write flag is ``kind == WRITE``.
READ = 0
WRITE = 1
COMPUTE = 2
LOCK = 3
BARRIER = 4

#: Events per batch the tuple adapter builds.
_ADAPTER_ROWS = 4096


def thread_cpi(fp_fraction: float) -> float:
    """Average cycles per instruction for a thread's instruction mix."""
    return fp_fraction * FP_CPI + (1.0 - fp_fraction) * OTHER_CPI


Event = tuple  # ("step", n, cycles, addr, w) | ("mem", addr, w) | ...


class EventBatch(NamedTuple):
    """A run of one thread's events as columns, one row per event.

    A step's cycles are ``gaps[i] * cpi``; a batch with no single CPI
    (one built from event tuples) gives ``cpi=None`` and carries them
    per row in ``cycles``.
    """

    kinds: bytes  #: row kind, one of READ/WRITE/COMPUTE/LOCK/BARRIER
    gaps: Sequence[int]  #: instructions a row retires; a lock's hold
    lines: Sequence[int]  #: a step's line; a lock's id
    line_bytes: int  #: a step references ``lines[i] * line_bytes``
    cpi: float | None = None
    cycles: Sequence[float] | None = None  #: per-row cycles if no cpi


def _tuple_batches(events: Iterable[Event]) -> Iterator[EventBatch]:
    """Columns of ``events`` (tuples), ``_ADAPTER_ROWS`` rows a batch,
    addressed by byte."""
    kinds = bytearray()
    gaps: list = []
    lines: list = []
    cycles: list = []
    for event in events:
        kind = event[0]
        if kind == "step":
            _, n, c, address, is_write = event
            row = (WRITE if is_write else READ, n, address, c)
        elif kind == "mem":
            _, address, is_write = event
            row = (WRITE if is_write else READ, 0, address, 0.0)
        elif kind == "compute":
            _, n, c = event
            row = (COMPUTE, n, 0, c)
        elif kind == "lock":
            _, lock_id, hold = event
            row = (LOCK, hold, lock_id, 0.0)
        elif kind == "barrier":
            row = (BARRIER, 0, 0, 0.0)
        else:
            raise ValueError(f"unknown workload event {kind!r}")
        kinds.append(row[0])
        gaps.append(row[1])
        lines.append(row[2])
        cycles.append(row[3])
        if len(kinds) == _ADAPTER_ROWS:
            yield EventBatch(bytes(kinds), gaps, lines, 1, None, cycles)
            kinds, gaps, lines, cycles = bytearray(), [], [], []
    if kinds:
        yield EventBatch(bytes(kinds), gaps, lines, 1, None, cycles)


def as_batches(stream: Iterable) -> Iterator[EventBatch]:
    """``stream`` as event batches: passed through if it yields
    :class:`EventBatch` objects, else read as event tuples."""
    events = iter(stream)
    first = next(events, None)
    if first is None:
        return iter(())
    events = chain((first,), events)
    return events if isinstance(first, EventBatch) else _tuple_batches(events)


@dataclass
class ThreadContext:
    """One hardware thread's simulation state: its clocks and counts,
    and a cursor over its current event batch."""

    thread_id: int
    core_id: int
    batches: Iterator[EventBatch]
    time: float = 0.0  #: local clock, CPU cycles
    instructions: float = 0.0
    breakdown: CycleBreakdown = field(default_factory=CycleBreakdown)
    done: bool = False
    waiting_barrier: bool = False
    batch: EventBatch | None = None  #: the batch being walked
    row: int = 0  #: index of the next row of ``batch``
    end: int = 0  #: rows in ``batch``

    def next_batch(self) -> bool:
        """Move the cursor to the first row of the next non-empty batch;
        False when the thread has no more events."""
        self.batch = None  # let the batch go before the next is drawn
        for batch in self.batches:
            if batch.kinds:
                self.batch = batch
                self.row = 0
                self.end = len(batch.kinds)
                return True
        return False
