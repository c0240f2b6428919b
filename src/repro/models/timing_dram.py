"""DDR interface speed grades and datasheet quantization.

Maps the continuous timing produced by the array model onto discrete DDR
speed grades (clock periods and transfer rates), the way a datasheet
expresses tCK-quantized parameters.  Used by the Table 2 validation
(DDR3-1066) and the LLC study's DDR4-3200 main memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.mainmem import MainMemoryTiming


@dataclass(frozen=True)
class SpeedGrade:
    """One DDR speed grade."""

    name: str
    transfers_per_s: float  #: MT/s * 1e6

    @property
    def clock_hz(self) -> float:
        """Interface clock; DDR transfers twice per clock."""
        return self.transfers_per_s / 2.0

    @property
    def clock_period(self) -> float:
        return 1.0 / self.clock_hz

    def cycles(self, t: float) -> int:
        """Datasheet cycle count for an analogue timing parameter."""
        return math.ceil(t / self.clock_period - 1e-12)

    def burst_time(self, burst_length: int) -> float:
        """Pin time of one burst (s): BL transfers at 2 per clock."""
        return burst_length / self.transfers_per_s * 1.0


DDR3_1066 = SpeedGrade("DDR3-1066", 1066e6)
DDR4_3200 = SpeedGrade("DDR4-3200", 3200e6)


@dataclass(frozen=True)
class DatasheetTiming:
    """A timing interface quantized to a speed grade."""

    grade: SpeedGrade
    cl: int  #: CAS latency, cycles
    trcd: int
    trp: int
    tras: int
    trc: int
    trrd: int

    @property
    def t_rcd(self) -> float:
        return self.trcd * self.grade.clock_period

    @property
    def t_cas(self) -> float:
        return self.cl * self.grade.clock_period

    @property
    def t_rp(self) -> float:
        return self.trp * self.grade.clock_period

    @property
    def t_rc(self) -> float:
        return self.trc * self.grade.clock_period

    def label(self) -> str:
        return f"{self.grade.name} {self.cl}-{self.trcd}-{self.trp}"


def quantize(timing: MainMemoryTiming, grade: SpeedGrade) -> DatasheetTiming:
    """Round the analogue timing up to whole interface clocks."""
    return DatasheetTiming(
        grade=grade,
        cl=grade.cycles(timing.t_cas),
        trcd=grade.cycles(timing.t_rcd),
        trp=grade.cycles(timing.t_rp),
        tras=grade.cycles(timing.t_ras),
        trc=grade.cycles(timing.t_rc),
        trrd=grade.cycles(timing.t_rrd),
    )


def to_main_memory_timing(
    sheet: DatasheetTiming, burst_length: int
) -> MainMemoryTiming:
    """Rebuild an analogue timing view from a quantized datasheet."""
    period = sheet.grade.clock_period
    return MainMemoryTiming(
        t_rcd=sheet.trcd * period,
        t_cas=sheet.cl * period,
        t_rp=sheet.trp * period,
        t_ras=sheet.tras * period,
        t_rc=sheet.trc * period,
        t_rrd=sheet.trrd * period,
        t_burst=sheet.grade.burst_time(burst_length),
    )
