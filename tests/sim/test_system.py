"""Integration tests for the full-system simulator."""

import dataclasses
import random

import pytest

from repro.dram.page_policy import OpenPagePolicy
from repro.sim.cache import Cache, CacheConfig, MesiState
from repro.sim.coherence import MesiDirectory
from repro.sim.core import (
    _ADAPTER_ROWS as ADAPTER_ROWS,
    BARRIER,
    COMPUTE,
    LOCK,
    READ,
    WRITE,
    EventBatch,
    ThreadContext,
    as_batches,
)
from repro.sim.dram_channel import MemoryController, MemoryTimingCycles
from repro.sim.interconnect import Crossbar
from repro.sim.system import L3Config, System, SystemConfig, run_workload
from repro.workloads.npb import UA_C
from repro.workloads.synthetic import event_batches, event_stream

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


    @pytest.mark.parametrize("l3", [False, True])
    def test_live_streams_match_their_lists(self, l3):
        """The study feeds drawn batches and the bench's replay feeds
        materialised tuple lists; both runs, and a run on the live tuple
        view, must give the same statistics."""
        profile = UA_C.with_instructions(40_000).scaled(16)
        cfg = config(l3=l3)
        threads = cfg.num_threads
        batches = System(cfg).run(
            [event_batches(profile, tid, threads) for tid in range(threads)]
        )
        events = [list(event_stream(profile, tid, threads))
                  for tid in range(threads)]
        lists = System(cfg).run(events)
        live = System(cfg).run(
            [event_stream(profile, tid, threads) for tid in range(threads)]
        )
        assert batches.counters.mem_reads > 0
        assert batches.breakdown.barrier > 0
        assert any(e[0] == "lock" for stream in events for e in stream)
        assert dataclasses.asdict(batches) == dataclasses.asdict(lists)
        assert dataclasses.asdict(live) == dataclasses.asdict(lists)


class TestEventBatches:
    """``run`` walks event batches; event tuples reach it through the
    one adapter, ``as_batches``."""

    def test_adapter_columns(self):
        events = [("compute", 10, 40.0), ("mem", 0x1040, True),
                  ("step", 3, 7.5, 0x80, False), ("lock", 9, 50),
                  ("barrier",), ("mem", 0x41, False)]
        (batch,) = as_batches(iter(events))
        assert batch == EventBatch(
            bytes([COMPUTE, WRITE, READ, LOCK, BARRIER, READ]),
            [10, 0, 3, 50, 0, 0], [0, 0x1040, 0x80, 9, 0, 0x41], 1, None,
            [40.0, 0.0, 7.5, 0.0, 0.0, 0.0])

    def test_adapter_batches_long_streams(self):
        events = [("mem", i * 64, False) for i in range(ADAPTER_ROWS + 5)]
        sizes = [len(b.kinds) for b in as_batches(events)]
        assert sizes == [ADAPTER_ROWS, 5]
        assert list(as_batches([])) == []

    def test_batches_pass_through(self):
        batch = EventBatch(bytes([READ]), [1], [2], 64, 4.0)
        assert list(as_batches([batch, batch])) == [batch, batch]

    @pytest.mark.parametrize("l3", [False, True])
    def test_hand_written_events_match_their_batches(self, l3):
        """Hand-written mem/compute/lock/barrier tuples and the batches
        they stand for run to the same statistics."""
        def stream(tid):
            return [
                ("compute", 10 + tid, 40.0 + tid), ("mem", 0x1000, False),
                ("lock", tid % 2, 30), ("mem", 0x1000 + 64 * tid, True),
                ("barrier",), ("step", 4, 6.0, 0x2000, tid == 1),
                ("lock", 0, 20), ("compute", 2, 3.5),
            ]

        def batch(tid):
            return EventBatch(
                bytes([COMPUTE, READ, LOCK, WRITE, BARRIER,
                       WRITE if tid == 1 else READ, LOCK, COMPUTE]),
                [10 + tid, 0, 30, 0, 0, 4, 20, 2],
                [0, 0x1000 // 64, tid % 2, 0x1000 // 64 + tid, 0,
                 0x2000 // 64, 0, 0],
                64, None, [40.0 + tid, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 3.5])

        cfg = config(l3=l3)
        tuples = System(cfg).run(
            [stream(t) for t in range(cfg.num_threads)])
        batches = System(cfg).run(
            [iter([batch(t)]) for t in range(cfg.num_threads)])
        assert tuples.breakdown.lock > 0 and tuples.breakdown.barrier > 0
        assert tuples.counters.l1_writes == cfg.num_threads + 1
        assert dataclasses.asdict(tuples) == dataclasses.asdict(batches)


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
    return ThreadContext(thread_id=core, core_id=core, batches=iter([]))


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
        block = 0x80 // 64
        assert system.l2s[1].lookup(block) is MesiState.SHARED
        before = t1.time
        system.service_memory_request(t1, 0x80, True)
        # L1 + L2 miss detection + the invalidation round.
        assert t1.time - before == 2 + 3 + 8
        assert system.counters.coherence_invalidations == 1
        assert system.l2s[0].lookup(block) is None
        assert system.l2s[1].lookup(block) is MesiState.MODIFIED

    def test_bytes_of_one_line_share_a_block(self):
        system = System(config(cores=1, threads=1))
        thread = thread_on(0)
        system.service_memory_request(thread, 0x1000, False)
        system.service_memory_request(thread, 0x1000 + 63, False)
        assert system.counters.l2_reads == 1  # the second byte hit the L1
        system.service_memory_request(thread, 0x1000 + 64, False)
        assert system.counters.l2_reads == 2

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
        assert calls == [(1, False), (1, True)]  # block 0x40 // 64


class TestLineSize:
    """Every level must use one line size: the walk computes one block
    number per reference and back-invalidates by it."""

    @pytest.mark.parametrize("level", ["l1", "l2"])
    def test_private_level_of_another_size_rejected(self, level):
        other = CacheConfig(capacity_bytes=2048, block_bytes=32,
                            associativity=2, access_cycles=2)
        cfg = dataclasses.replace(config(), **{level: other})
        with pytest.raises(ValueError, match="line size") as err:
            System(cfg)
        assert "32 B" in str(err.value) and "64 B" in str(err.value)

    def test_l3_of_another_size_rejected(self):
        cfg = config()
        cfg = dataclasses.replace(
            cfg, l3=dataclasses.replace(cfg.l3, block_bytes=128))
        with pytest.raises(ValueError,
                           match="L1 64 B, L2 64 B, L3 128 B, memory 64 B"):
            System(cfg)


#: The methods ``bench/suite.py`` shadows on a live system, by owner.
INSTRUMENTED = [
    (Cache, "access"), (Cache, "fill"), (Cache, "invalidate"),
    (MesiDirectory, "read"), (MesiDirectory, "write"),
    (MemoryController, "access"), (Crossbar, "traverse"),
]


def shared_traffic(num_threads, seed=7, refs=400):
    """Reads and writes over a footprint well past the L3, with every
    thread touching the same lines: misses, evictions, dirty writebacks,
    coherence upgrades and invalidations all happen."""
    rng = random.Random(seed)
    return [
        [("step", 2, 4.0, rng.randrange(1 << 17), rng.random() < 0.3)
         for _ in range(refs)]
        for _ in range(num_threads)
    ]


class TestInstrumentation:
    """``bind_components`` promises that methods replaced on a live
    system's components are the ones ``run`` calls.  An instance-level
    counter on each must see as many calls as a class-level one, which
    sees every call whatever path makes it, and wrapping must not change
    the result."""

    @staticmethod
    def instrumented_config():
        cfg = config(cores=2, threads=2)
        return dataclasses.replace(
            cfg, page_policy=OpenPagePolicy(),
            l3=L3Config(capacity_bytes=16 << 10, associativity=4,
                        access_cycles=5, bank_cycle=2, subbanks=2,
                        subbank_cycle=6))

    @staticmethod
    def counting(inner, counts, key):
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return inner(*args, **kwargs)
        return wrapper

    def test_instance_wrappers_see_every_call(self, monkeypatch):
        cfg = self.instrumented_config()
        plain = System(cfg).run(shared_traffic(cfg.num_threads))

        by_class: dict = {}
        with monkeypatch.context() as patch:
            for owner, name in INSTRUMENTED:
                key = f"{owner.__name__}.{name}"
                patch.setattr(owner, name, self.counting(
                    getattr(owner, name), by_class, key))
            class_stats = System(cfg).run(shared_traffic(cfg.num_threads))

        system = System(cfg)
        by_instance: dict = {}
        components = [*system.l1s, *system.l2s, system.l3, system.directory,
                      system.memory, system.crossbar]
        for owner, name in INSTRUMENTED:
            key = f"{owner.__name__}.{name}"
            for obj in components:
                if isinstance(obj, owner):
                    setattr(obj, name, self.counting(
                        getattr(obj, name), by_instance, key))
        wrapped = system.run(shared_traffic(cfg.num_threads))

        assert by_instance == by_class
        assert set(by_instance) == {f"{o.__name__}.{n}"
                                    for o, n in INSTRUMENTED}
        assert dataclasses.asdict(wrapped) == dataclasses.asdict(plain)
        assert dataclasses.asdict(class_stats) == dataclasses.asdict(plain)

        # The wrapped methods are the only paths to their counters.
        caches = [*system.l1s, *system.l2s, system.l3]
        assert by_instance["Cache.access"] == sum(
            c.hits + c.misses for c in caches)
        memory = system.memory.stats
        assert by_instance["MemoryController.access"] == (
            memory.reads + memory.writes)
        assert by_instance["Crossbar.traverse"] == system.crossbar.transfers
        assert wrapped.counters.coherence_invalidations > 0
        assert memory.writes > 0
