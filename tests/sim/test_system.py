"""Integration tests for the full-system simulator."""

import pytest

from repro.sim.cache import CacheConfig, MesiState
from repro.sim.core import ThreadContext
from repro.sim.dram_channel import MemoryTimingCycles
from repro.sim.system import L3Config, System, SystemConfig, run_workload

MEM = MemoryTimingCycles(
    t_rcd=30, t_cas=31, t_rp=28, t_ras=70, t_rc=98, t_rrd=15, t_burst=5
)


def config(l3=True, cores=2, threads=2):
    return SystemConfig(
        name="test",
        l1=CacheConfig(capacity_bytes=1024, block_bytes=64, associativity=2,
                       access_cycles=2),
        l2=CacheConfig(capacity_bytes=4096, block_bytes=64, associativity=4,
                       access_cycles=3),
        l3=L3Config(capacity_bytes=64 << 10, associativity=8,
                    access_cycles=5, bank_cycle=1) if l3 else None,
        memory=MEM,
        num_cores=cores,
        threads_per_core=threads,
    )


def compute(n=10, cycles=40.0):
    return ("compute", n, cycles)


class TestExecution:
    def test_pure_compute(self):
        stats = run_workload(
            config(), lambda tid: iter([compute(100, 400.0)])
        )
        assert stats.instructions == 400  # 4 threads x 100
        assert stats.cycles == pytest.approx(400.0)
        assert stats.breakdown.instruction == pytest.approx(1600.0)

    def test_stream_count_mismatch(self):
        system = System(config())
        with pytest.raises(ValueError, match="streams"):
            system.run([iter([])])

    def test_memory_stall_attribution(self):
        events = [compute(), ("mem", 0x10000, False)]
        stats = run_workload(config(), lambda tid: iter(events))
        # Cold miss goes all the way to memory.
        assert stats.breakdown.memory > 0
        assert stats.counters.mem_reads > 0

    def test_l1_hit_is_free(self):
        events = [("mem", 0x40, False), ("mem", 0x40, False)]
        stats = run_workload(config(cores=1, threads=1),
                             lambda tid: iter(events))
        assert stats.counters.l1_reads == 2
        assert stats.counters.l2_reads == 1  # only the cold miss

    def test_l3_filters_memory(self):
        """Second thread on another core reuses data via the L3."""
        events = [("mem", i * 64, False) for i in range(64)]
        cfg = config(l3=True, cores=2, threads=1)
        system = System(cfg)
        stats = system.run([iter(events), iter(list(events))])
        assert stats.counters.l3_reads > 0
        # Far fewer memory reads than total L3 traffic.
        assert stats.counters.mem_reads <= 80

    def test_no_l3_goes_straight_to_memory(self):
        events = [("mem", i * 64, False) for i in range(64)]
        stats = run_workload(config(l3=False, cores=1, threads=1),
                             lambda tid: iter(events))
        assert stats.counters.l3_reads == 0
        assert stats.counters.mem_reads == 64

    def test_unknown_event_raises(self):
        with pytest.raises(ValueError, match="unknown workload event"):
            run_workload(config(), lambda tid: iter([("jump", 1)]))


class TestSynchronization:
    def test_barrier_aligns_threads(self):
        def stream(tid):
            work = 100.0 if tid == 0 else 10.0
            return iter([compute(10, work), ("barrier",),
                         compute(10, 10.0)])

        stats = run_workload(config(cores=1, threads=2), stream)
        assert stats.breakdown.barrier > 0
        assert stats.cycles == pytest.approx(110.0)

    def test_lock_serializes(self):
        events = [("lock", 1, 50)]
        stats = run_workload(config(cores=1, threads=2),
                             lambda tid: iter(list(events)))
        # The second thread waits for the first's critical section.
        assert stats.breakdown.lock == pytest.approx(50.0)
        assert stats.cycles == pytest.approx(100.0)

    def test_done_threads_release_barrier(self):
        """A barrier must release even if some threads already finished."""
        def stream(tid):
            if tid == 0:
                return iter([compute(1, 5.0)])
            return iter([compute(1, 1.0), ("barrier",), compute(1, 1.0)])

        stats = run_workload(config(cores=1, threads=2), stream)
        assert stats.cycles >= 2.0


class TestCoherenceTraffic:
    def test_write_sharing_invalidates(self):
        def stream(tid):
            if tid == 0:
                return iter([("mem", 0x1000, False),
                             compute(10, 40.0),
                             ("mem", 0x1000, False)])
            return iter([compute(5, 20.0), ("mem", 0x1000, True)])

        cfg = config(cores=2, threads=1)
        system = System(cfg)
        stats = system.run([stream(0), stream(1)])
        assert stats.counters.coherence_invalidations >= 1

    def test_ipc_definition(self):
        stats = run_workload(config(), lambda tid: iter([compute(100, 50.0)]))
        assert stats.ipc == pytest.approx(400 / 50.0)


def thread_on(core):
    return ThreadContext(thread_id=core, core_id=core, events=iter([]))


class TestServiceMemoryRequest:
    """The per-reference walk, driven one request at a time."""

    def test_cold_read_walks_to_memory_then_hits_l1(self):
        system = System(config(cores=1, threads=1))
        thread = thread_on(0)
        system.service_memory_request(thread, 0x40, False)
        assert thread.breakdown.memory == thread.time > 0
        c = system.counters
        assert (c.l1_reads, c.l2_reads, c.l3_reads, c.crossbar_transfers) \
            == (1, 1, 1, 1)
        assert system.memory.stats.reads == 1
        cold = thread.time
        system.service_memory_request(thread, 0x40, False)
        assert thread.time == cold  # an L1 hit stalls nothing
        assert (c.l1_reads, c.l2_reads) == (2, 1)

    def test_write_to_shared_line_upgrades_and_invalidates_peer(self):
        system = System(config(cores=2, threads=1))
        t0, t1 = thread_on(0), thread_on(1)
        system.service_memory_request(t0, 0x80, False)
        system.service_memory_request(t1, 0x80, False)  # peer supplies it
        assert system.l2s[1].lookup(0x80) is MesiState.SHARED
        before = t1.time
        system.service_memory_request(t1, 0x80, True)
        # L1 + L2 miss detection + the invalidation round.
        assert t1.time - before == 2 + 3 + 8
        assert system.counters.coherence_invalidations == 1
        assert system.l2s[0].lookup(0x80) is None
        assert system.l2s[1].lookup(0x80) is MesiState.MODIFIED

    def test_run_calls_methods_replaced_after_construction(self):
        system = System(config(cores=1, threads=1))
        l1 = system.l1s[0]
        calls = []
        inner = l1.access

        def counted(*args):
            calls.append(args)
            return inner(*args)

        l1.access = counted
        system.run([iter([("mem", 0x40, False), ("mem", 0x40, True)])])
        assert calls == [(0x40, False), (0x40, True)]
