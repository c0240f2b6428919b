"""The flat memory controller against its per-bank-object oracle.

:class:`repro.sim.dram_channel.MemoryController` keeps each bank's ready
time, open row and activate time in flat per-channel lists;
:class:`ReferenceMemoryController` below runs one
:class:`~tests.sim.reference_dram.DramBank` object per bank, an
``AccessResult`` per request and a page-policy call per access, behind
the same address map and data bus.  Random request sequences, under both
page policies, must give identical latencies and :class:`MemoryStats`.
The sequences mix in the requests the simulator's walk issues:
dirty-line writebacks at ``now=0.0`` and times that step backwards
(threads run on their own clocks).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.array.mainmem import MainMemoryTiming
from repro.dram.page_policy import ClosedPagePolicy, OpenPagePolicy, PagePolicy
from repro.sim.dram_channel import (
    MemoryController,
    MemoryStats,
    MemoryTimingCycles,
)
from tests.sim.reference_dram import DramBank


class ReferenceMemoryController:
    """Two-channel, multi-bank main memory built from :class:`DramBank`."""

    def __init__(
        self,
        timing: MemoryTimingCycles,
        num_channels: int = 2,
        banks_per_channel: int = 8,
        row_bytes: int = 1024,
        line_bytes: int = 64,
        policy: PagePolicy | None = None,
    ):
        self.timing = timing
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.row_bytes = row_bytes
        self.line_bytes = line_bytes
        self.policy = policy or ClosedPagePolicy()
        # The bank model takes the chip timing type; the fields match.
        chip = MainMemoryTiming(**dataclasses.asdict(timing))
        self.banks = [
            [DramBank(timing=chip) for _ in range(banks_per_channel)]
            for _ in range(num_channels)
        ]
        self._bus_ready = [0.0] * num_channels
        self.stats = MemoryStats()

    def _map(self, address: int) -> tuple[int, int, int]:
        """Address to (channel, bank, row): lines interleave channels,
        rows interleave banks."""
        line = address // self.line_bytes
        channel = line % self.num_channels
        row_global = address // (self.row_bytes * self.num_channels)
        bank = row_global % self.banks_per_channel
        row = row_global // self.banks_per_channel
        return channel, bank, row

    def access(self, now: float, address: int, is_write: bool) -> float:
        """Service one cache-line request; returns its total latency
        (CPU cycles, request to first data)."""
        channel, bank_idx, row = self._map(address)
        bank = self.banks[channel][bank_idx]
        close = self.policy.close_after_access(0.0)
        result = bank.access(now, row, is_write, close_after=close)

        # Channel data bus: one burst occupies it; serialize bursts.
        data_start = max(result.data_time, self._bus_ready[channel])
        self._bus_ready[channel] = data_start + self.timing.t_burst

        self.stats.reads += 0 if is_write else 1
        self.stats.writes += 1 if is_write else 0
        self.stats.activates += 1 if result.activated else 0
        self.stats.row_hits += 1 if result.row_hit else 0
        return data_start + self.timing.t_burst - now


TIMINGS = [
    MemoryTimingCycles(t_rcd=30, t_cas=31, t_rp=28, t_ras=70, t_rc=98,
                       t_rrd=15, t_burst=5),
    # Non-integral cycle counts, as converted chip timings are.
    MemoryTimingCycles(t_rcd=27.5, t_cas=27.5, t_rp=27.5, t_ras=64.0,
                       t_rc=91.5, t_rrd=12.5, t_burst=8.0),
]

#: Few rows over two channels and two banks, so rows hit, conflict and
#: queue often.
GEOMETRY = dict(num_channels=2, banks_per_channel=2, row_bytes=256,
                line_bytes=64)

request = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2000.0)),
    st.integers(min_value=0, max_value=4 * 2 * 2 * 256 - 1),
    st.booleans(),
)


@given(
    st.sampled_from(TIMINGS),
    st.sampled_from([OpenPagePolicy(), ClosedPagePolicy()]),
    st.lists(request, max_size=300),
)
@settings(max_examples=200, deadline=None)
def test_same_latencies_and_stats_as_reference(timing, policy, requests):
    flat = MemoryController(timing, policy=policy, **GEOMETRY)
    ref = ReferenceMemoryController(timing, policy=policy, **GEOMETRY)
    for now, address, is_write in requests:
        assert flat.access(now, address, is_write) == ref.access(
            now, address, is_write)
    assert dataclasses.asdict(flat.stats) == dataclasses.asdict(ref.stats)


def test_default_geometry_matches_reference():
    """The simulator's geometry (2 channels, 8 banks, 1 KB rows) on a
    strided stream that reuses rows."""
    for policy in (OpenPagePolicy(), ClosedPagePolicy()):
        flat = MemoryController(TIMINGS[0], policy=policy)
        ref = ReferenceMemoryController(TIMINGS[0], policy=policy)
        for k in range(2000):
            address = k * 5 % 4096 * 64
            assert flat.access(3.0 * k, address, k % 3 == 0) == ref.access(
                3.0 * k, address, k % 3 == 0)
        assert flat.stats == ref.stats
        assert (flat.stats.row_hits > 0) == (policy.name == "open")
