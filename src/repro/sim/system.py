"""The simulated system: 8 multithreaded cores, private L1/L2 with MESI,
an optional shared 8-banked stacked L3 behind a crossbar, and dual-channel
main memory (paper Figure 2).

The simulator is trace-driven and event-ordered: the thread with the
earliest local clock executes its next workload event; shared resources
(L3 banks, crossbar ports, DRAM banks, channel buses) are busy-time
queues.  Synchronization (barriers, locks) follows the COTSon-style
constraint replay the paper describes.

Capacities can be scaled down by ``scale`` (with workloads scaled to
match) so runs finish in seconds of Python while preserving the
capacity/locality relationships that drive the paper's results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.dram.page_policy import PagePolicy
from repro.sim.cache import Cache, CacheConfig, MesiState
from repro.sim.coherence import MesiDirectory
from repro.sim.core import COMPUTE, LOCK, WRITE, ThreadContext, as_batches
from repro.sim.dram_channel import MemoryController, MemoryTimingCycles
from repro.sim.interconnect import Crossbar
from repro.sim.stats import AccessCounters, SimStats

_MODIFIED = MesiState.MODIFIED
_EXCLUSIVE = MesiState.EXCLUSIVE
_SHARED = MesiState.SHARED

#: Latency of an L2 cache-to-cache transfer beyond the L2 hit time.
_C2C_EXTRA_CYCLES = 8


@dataclass(frozen=True)
class L3Config:
    """The shared stacked L3 as the simulator sees it.

    With ``subbanks`` > 1 the multisubbank interleaving of paper section
    2.3.4 is modeled explicitly: accesses to *different* subbanks of a
    bank pitch at ``bank_cycle`` (the interleave cycle), while a second
    access to a *busy subbank* waits out ``subbank_cycle`` (the random
    cycle -- for DRAM, the full destructive-read row cycle).
    """

    capacity_bytes: int
    associativity: int
    access_cycles: int  #: bank access latency (CPU cycles, Table 3)
    bank_cycle: int  #: issue pitch per bank (interleave cycle)
    nbanks: int = 8
    block_bytes: int = 64
    subbanks: int = 1  #: subbanks per bank sharing the address/data bus
    subbank_cycle: int = 0  #: same-subbank reuse pitch (random cycle)


@dataclass(frozen=True)
class SystemConfig:
    """Everything the timing simulator needs for one system configuration."""

    name: str
    l1: CacheConfig
    l2: CacheConfig
    l3: L3Config | None
    memory: MemoryTimingCycles
    num_cores: int = 8
    threads_per_core: int = 4
    crossbar_cycles: int = 2
    cpu_hz: float = 2e9
    page_policy: PagePolicy | None = None  #: default: closed page

    @property
    def num_threads(self) -> int:
        return self.num_cores * self.threads_per_core


def _common_line_bytes(config: SystemConfig, memory_line_bytes: int) -> int:
    """The one line size every level shares; raises ValueError naming the
    sizes when the levels disagree.

    The walk computes one block number per reference for every level, and
    a back-invalidation by block is only exact when the lines coincide.
    """
    sizes = {"L1": config.l1.block_bytes, "L2": config.l2.block_bytes}
    if config.l3 is not None:
        sizes["L3"] = config.l3.block_bytes
    sizes["memory"] = memory_line_bytes
    if len(set(sizes.values())) > 1:
        listed = ", ".join(f"{level} {size} B"
                           for level, size in sizes.items())
        raise ValueError(f"hierarchy levels disagree on line size: {listed}")
    return memory_line_bytes


class System:
    """One simulated machine executing one multithreaded workload."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.l1s = [Cache(config.l1) for _ in range(config.num_cores)]
        self.l2s = [Cache(config.l2) for _ in range(config.num_cores)]
        self.directory = MesiDirectory(self.l2s)
        self.l3: Cache | None = None
        self._l3_bank_ready: list[float] = []
        self._l3_subbank_ready: list[list[float]] = []
        if config.l3 is not None:
            self.l3 = Cache(
                CacheConfig(
                    capacity_bytes=config.l3.capacity_bytes,
                    block_bytes=config.l3.block_bytes,
                    associativity=config.l3.associativity,
                    access_cycles=config.l3.access_cycles,
                )
            )
            self._l3_bank_ready = [0.0] * config.l3.nbanks
            self._l3_subbank_ready = [
                [0.0] * max(config.l3.subbanks, 1)
                for _ in range(config.l3.nbanks)
            ]
        self.crossbar = Crossbar(traverse_cycles=config.crossbar_cycles)
        self.memory = MemoryController(config.memory,
                                       policy=config.page_policy)
        self._line_bytes = _common_line_bytes(config, self.memory.line_bytes)
        self.counters = AccessCounters()
        self._locks: dict[int, float] = {}
        self._barrier_arrivals: list[ThreadContext] = []
        self._l1_cycles = float(config.l1.access_cycles)
        self._lat_sum = 0.0
        self._lat_count = 0
        self.bind_components()

    # ------------------------------------------------------------------ #
    # Memory hierarchy walk
    #
    # ``service_memory_request`` turns the address into its block number
    # once; every cache, the directory and the L3 bank choice take that
    # int, and evictions hand back the victim's block.

    def bind_components(self) -> None:
        """Look up the per-core cache methods every reference calls once,
        so the walk indexes a list instead of resolving two attributes.

        ``run`` calls this again when it starts, so methods replaced on
        the caches after construction (for instance by instrumentation)
        are the ones the walk calls.
        """
        self._l1_access = [c.access for c in self.l1s]
        self._l1_fill = [c.fill for c in self.l1s]
        self._l2_access = [c.access for c in self.l2s]

    def _access_l3(self, now: float, block: int, is_write: bool
                   ) -> tuple[float, bool]:
        """Crossbar + L3 bank access; returns (latency, hit)."""
        assert self.l3 is not None and self.config.l3 is not None
        cfg = self.config.l3
        bank = block % cfg.nbanks
        arrive = self.crossbar.traverse(now, bank)
        self.counters.crossbar_transfers += 1
        start = max(arrive, self._l3_bank_ready[bank])
        if cfg.subbanks > 1 and cfg.subbank_cycle > cfg.bank_cycle:
            # Multisubbank interleaving: the shared bus pitches at the
            # interleave cycle, but a busy subbank (mid row-cycle) stalls
            # the request for the remainder of its random cycle.
            sub = block // cfg.nbanks % cfg.subbanks
            ready = self._l3_subbank_ready[bank]
            start = max(start, ready[sub])
            ready[sub] = start + cfg.subbank_cycle
        self._l3_bank_ready[bank] = start + cfg.bank_cycle
        hit = self.l3.access(block, is_write) is not None
        if is_write:
            self.counters.l3_writes += 1
        else:
            self.counters.l3_reads += 1
        finish = start + cfg.access_cycles
        return finish + self.config.crossbar_cycles - now, hit

    def _fill_l3(self, block: int) -> None:
        assert self.l3 is not None
        victim = self.l3.fill(block, _EXCLUSIVE)
        if victim is not None:
            victim_block, dirty = victim
            # Inclusive L3: back-invalidate the private caches.
            for l1, l2 in zip(self.l1s, self.l2s):
                if l2.invalidate(victim_block):
                    dirty = True
                l1.invalidate(victim_block)
            self.directory.forget(victim_block)
            if dirty:
                self.memory.access(0.0, victim_block * self._line_bytes,
                                   True)

    def _fill_l2(self, core: int, block: int, state: MesiState) -> None:
        victim = self.l2s[core].fill(block, state)
        if victim is not None:
            victim_block, dirty = victim
            self.directory.evicted(core, victim_block)
            self.l1s[core].invalidate(victim_block)
            if dirty:
                l3 = self.l3
                if l3 is not None and l3.lookup(victim_block) is not None:
                    l3.set_state(victim_block, _MODIFIED)
                    self.counters.l3_writes += 1
                else:
                    self.memory.access(0.0, victim_block * self._line_bytes,
                                       True)

    def service_memory_request(
        self, thread: ThreadContext, address: int, is_write: bool
    ) -> None:
        """Walk the hierarchy for one reference, charging the thread."""
        block = address // self._line_bytes
        core = thread.core_id
        state = self._l1_access[core](block, is_write)
        if is_write:
            self.counters.l1_writes += 1
            if state is None or state is _SHARED:
                self._service_l1_miss(thread, core, block, True)
            return
        self.counters.l1_reads += 1
        # An L1 hit's stall is hidden by the pipeline, but it still
        # counts toward the average read latency of Figure 4(a).
        self._lat_sum += (
            self._l1_cycles if state is not None
            else self._service_l1_miss(thread, core, block, False)
        )
        self._lat_count += 1

    def _service_l1_miss(self, thread: ThreadContext, core: int,
                         block: int, is_write: bool) -> float:
        """Service an L1 miss (or write upgrade) from the private L2, a
        peer L2, the L3 or memory, charging ``thread``; returns the
        reference's latency."""
        counters = self.counters
        l2_cycles = self.config.l2.access_cycles
        latency = self._l1_cycles
        if is_write:
            counters.l2_writes += 1
        else:
            counters.l2_reads += 1
        state = self._l2_access[core](block, is_write)
        upgrade_needed = is_write and state is _SHARED
        if state is not None and not upgrade_needed:
            latency += l2_cycles
            thread.breakdown.l2 += latency
            thread.time += latency
            self._l1_fill[core](block, state)
            return latency

        latency += l2_cycles  # miss detection
        directory = self.directory
        if upgrade_needed:
            outcome = directory.write(core, block)
            counters.coherence_invalidations += outcome.invalidated
            self.l2s[core].set_state(block, _MODIFIED)
            latency += _C2C_EXTRA_CYCLES
            thread.breakdown.l2 += latency
            thread.time += latency
            self._l1_fill[core](block, _MODIFIED)
            return latency

        # True L2 miss: resolve coherence among peers.
        outcome = (directory.write(core, block) if is_write
                   else directory.read(core, block))
        counters.coherence_invalidations += outcome.invalidated
        if outcome.source_core is not None:
            # Cache-to-cache transfer between private L2s.
            latency += l2_cycles + _C2C_EXTRA_CYCLES
            thread.breakdown.l2 += latency
            thread.time += latency
            state = _MODIFIED if is_write else _SHARED
            self._fill_l2(core, block, state)
            self._l1_fill[core](block, state)
            return latency

        # Go to the L3 (or straight to memory).
        if self.l3 is not None:
            l3_latency, hit = self._access_l3(thread.time + latency, block,
                                              is_write)
            latency += l3_latency
            if hit:
                thread.breakdown.l3 += latency
            else:
                mem_latency = self.memory.access(
                    thread.time + latency, block * self._line_bytes,
                    is_write)
                latency += mem_latency + self.config.crossbar_cycles
                thread.breakdown.memory += latency
                self._fill_l3(block)
        else:
            latency += self.memory.access(thread.time + latency,
                                          block * self._line_bytes, is_write)
            thread.breakdown.memory += latency

        thread.time += latency
        state = directory.state_for_fill(core, block, is_write)
        self._fill_l2(core, block, state)
        self._l1_fill[core](block, state)
        return latency

    # ------------------------------------------------------------------ #
    # Execution loop

    def run(self, event_streams: list[Iterable]) -> SimStats:
        """Execute one event stream per hardware thread to completion.

        Each stream yields :class:`~repro.sim.core.EventBatch` objects
        or event tuples (see :func:`~repro.sim.core.as_batches`).  The
        thread with the earliest clock executes one row per turn.
        """
        config = self.config
        if len(event_streams) != config.num_threads:
            raise ValueError(
                f"need {config.num_threads} event streams, got "
                f"{len(event_streams)}"
            )
        threads = [
            ThreadContext(
                thread_id=i,
                core_id=i // config.threads_per_core,
                batches=as_batches(stream),
            )
            for i, stream in enumerate(event_streams)
        ]
        self.bind_components()
        self._lat_sum = 0.0
        self._lat_count = 0
        service = self.service_memory_request
        locks = self._locks

        heap = [(t.time, t.thread_id) for t in threads]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush

        while heap:
            _, tid = heappop(heap)
            thread = threads[tid]
            i = thread.row
            if i == thread.end:
                if not thread.next_batch():
                    thread.done = True
                    self._maybe_release_barrier(threads, heap)
                    continue
                i = 0
            thread.row = i + 1
            kinds, gaps, lines, line_bytes, cpi, cycles = thread.batch
            kind = kinds[i]
            if kind <= COMPUTE:  # a step or compute row retires
                n = gaps[i]
                c = n * cpi if cycles is None else cycles[i]
                thread.instructions += n
                thread.time += c
                thread.breakdown.instruction += c
                if kind <= WRITE:  # a step references memory
                    service(thread, lines[i] * line_bytes, kind == WRITE)
            elif kind == LOCK:
                hold = gaps[i]
                ready = locks.get(lines[i], 0.0)
                wait = max(0.0, ready - thread.time)
                thread.breakdown.lock += wait
                thread.time += wait + hold
                thread.breakdown.instruction += hold
                locks[lines[i]] = thread.time
            else:
                thread.waiting_barrier = True
                self._barrier_arrivals.append(thread)
                self._maybe_release_barrier(threads, heap)
                continue
            heappush(heap, (thread.time, tid))

        return self._collect(threads)

    def _maybe_release_barrier(
        self, threads: list[ThreadContext], heap: list
    ) -> None:
        waiting = self._barrier_arrivals
        pending = [t for t in threads if not t.done and not t.waiting_barrier]
        if pending or not waiting:
            return
        release = max(t.time for t in waiting)
        for t in waiting:
            t.breakdown.barrier += release - t.time
            t.time = release
            t.waiting_barrier = False
            heapq.heappush(heap, (t.time, t.thread_id))
        self._barrier_arrivals = []

    def _collect(self, threads: list[ThreadContext]) -> SimStats:
        stats = SimStats()
        stats.cycles = max(t.time for t in threads)
        stats.instructions = sum(t.instructions for t in threads)
        for t in threads:
            stats.breakdown.add(t.breakdown)
        stats.counters = self.counters
        stats.counters.mem_activates = self.memory.stats.activates
        stats.counters.mem_reads = self.memory.stats.reads
        stats.counters.mem_writes = self.memory.stats.writes
        stats.read_latency_sum = self._lat_sum
        stats.read_count = self._lat_count
        return stats


def run_workload(
    config: SystemConfig,
    stream_factory: Callable[[int], Iterable],
) -> SimStats:
    """Convenience: build a system and run one stream per thread."""
    system = System(config)
    streams = [stream_factory(i) for i in range(config.num_threads)]
    return system.run(streams)
