"""Unit tests for the DRAM command/state model, the test oracle of the
memory controller."""

import pytest

from repro.array.mainmem import MainMemoryTiming
from tests.sim.reference_dram import BankState, DramBank

TIMING = MainMemoryTiming(
    t_rcd=13e-9,
    t_cas=13e-9,
    t_rp=13e-9,
    t_ras=36e-9,
    t_rc=49e-9,
    t_rrd=7.5e-9,
    t_burst=7.5e-9,
)


def make_bank():
    return DramBank(timing=TIMING)


class TestOpenPage:
    def test_first_access_activates(self):
        bank = make_bank()
        r = bank.access(0.0, row=5, is_write=False, close_after=False)
        assert r.activated and not r.precharged and not r.row_hit
        assert r.data_time == pytest.approx(TIMING.t_rcd + TIMING.t_cas)

    def test_row_hit_pays_cas_only(self):
        bank = make_bank()
        first = bank.access(0.0, row=5, is_write=False, close_after=False)
        second = bank.access(first.finish_time, row=5, is_write=False,
                             close_after=False)
        assert second.row_hit
        latency = second.data_time - second.issue_time
        assert latency == pytest.approx(TIMING.t_cas)

    def test_row_conflict_pays_precharge(self):
        bank = make_bank()
        first = bank.access(0.0, row=5, is_write=False, close_after=False)
        # Arrive long after tRAS so the precharge can start immediately.
        late = first.finish_time + TIMING.t_ras
        conflict = bank.access(late, row=9, is_write=False,
                               close_after=False)
        assert conflict.precharged and conflict.activated
        latency = conflict.data_time - conflict.issue_time
        assert latency == pytest.approx(
            TIMING.t_rp + TIMING.t_rcd + TIMING.t_cas
        )

    def test_tras_respected_on_early_conflict(self):
        bank = make_bank()
        bank.access(0.0, row=1, is_write=False, close_after=False)
        conflict = bank.access(1e-9, row=2, is_write=False,
                               close_after=False)
        # Precharge could not begin before tRAS expired.
        assert conflict.data_time >= (
            TIMING.t_ras + TIMING.t_rp + TIMING.t_rcd + TIMING.t_cas - 1e-12
        )


class TestClosedPage:
    def test_always_activates(self):
        bank = make_bank()
        first = bank.access(0.0, row=5, is_write=False, close_after=True)
        second = bank.access(first.finish_time, row=5, is_write=False,
                             close_after=True)
        assert not second.row_hit
        assert second.activated

    def test_closed_latency_is_rcd_cas(self):
        bank = make_bank()
        first = bank.access(0.0, row=5, is_write=False, close_after=True)
        second = bank.access(first.finish_time, row=7, is_write=False,
                             close_after=True)
        latency = second.data_time - second.issue_time
        assert latency == pytest.approx(TIMING.t_rcd + TIMING.t_cas)


class TestBankState:
    def test_defaults(self):
        s = BankState()
        assert not s.is_open
        assert s.ready_at == 0.0
