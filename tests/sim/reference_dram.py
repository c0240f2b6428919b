"""DRAM command-level operational model (paper sections 2.3.4-2.3.5):
the reference oracle of :class:`repro.sim.dram_channel.MemoryController`.

Main-memory DRAM chips are operated with ACTIVATE, READ, WRITE, and
PRECHARGE commands against per-bank row state.  Given a bank's state and
the chip timing, this module computes when a request's commands can
issue and when its data arrives, one :class:`DramBank` object per bank;
the production controller keeps the same state in flat lists, and
``tests/sim/test_dram_equivalence.py`` holds it to this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.array.mainmem import MainMemoryTiming


@dataclass
class BankState:
    """Row-buffer state of one DRAM bank."""

    open_row: int | None = None  #: row currently latched, None if precharged
    ready_at: float = 0.0  #: earliest time the bank accepts a new command
    active_since: float = 0.0  #: when the current row was activated

    @property
    def is_open(self) -> bool:
        return self.open_row is not None


@dataclass
class AccessResult:
    """Outcome of servicing one request at a bank."""

    issue_time: float  #: when the first command issued
    data_time: float  #: when the first data beat appears
    finish_time: float  #: when the bank can accept the next request
    row_hit: bool
    activated: bool  #: an ACTIVATE was required
    precharged: bool  #: a PRECHARGE was required first


@dataclass
class DramBank:
    """One bank executing the command protocol with datasheet timing."""

    timing: MainMemoryTiming
    state: BankState = field(default_factory=BankState)

    def access(
        self,
        now: float,
        row: int,
        is_write: bool,
        close_after: bool,
    ) -> AccessResult:
        """Service a READ/WRITE to ``row``, issuing ACT/PRE as needed.

        ``close_after`` implements the closed-page policy: the page is
        precharged immediately after the column burst, hiding tRP from a
        subsequent row miss at the cost of losing row hits.
        """
        t = self.timing
        start = max(now, self.state.ready_at)
        issue = start
        precharged = False
        activated = False
        row_hit = self.state.is_open and self.state.open_row == row

        if self.state.is_open and not row_hit:
            # Row conflict: precharge (respecting tRAS), then activate.
            pre_ok = max(start, self.state.active_since + t.t_ras)
            start = pre_ok + t.t_rp
            precharged = True
        if not self.state.is_open or not row_hit:
            activated = True
            self.state.open_row = row
            self.state.active_since = start
            start += t.t_rcd

        data = start + t.t_cas
        burst_done = data + t.t_burst
        finish = burst_done
        if close_after:
            pre_at = max(burst_done, self.state.active_since + t.t_ras)
            finish = pre_at + t.t_rp
            self.state.open_row = None
        self.state.ready_at = finish if close_after else burst_done
        del is_write  # reads and writes share this simplified timing
        return AccessResult(
            issue_time=issue,
            data_time=data,
            finish_time=finish,
            row_hit=row_hit,
            activated=activated,
            precharged=precharged,
        )
