"""Unit tests for sense amplifiers and DRAM charge sharing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.senseamp import SenseAmp, charge_share_signal
from repro.tech.devices import device

LSTP32 = device("lstp", 32)
F32 = 32e-9


class TestChargeShare:
    def test_formula(self):
        """dV = (VDD/2) Cs/(Cs+Cbl)."""
        assert charge_share_signal(30e-15, 30e-15, 1.0) == pytest.approx(0.25)

    def test_more_bitline_cap_less_signal(self):
        a = charge_share_signal(30e-15, 20e-15, 1.0)
        b = charge_share_signal(30e-15, 80e-15, 1.0)
        assert a > b

    @given(
        cs=st.floats(min_value=5e-15, max_value=60e-15),
        cbl=st.floats(min_value=5e-15, max_value=500e-15),
        vdd=st.floats(min_value=0.8, max_value=2.0),
    )
    def test_signal_bounded_by_half_vdd(self, cs, cbl, vdd):
        sig = charge_share_signal(cs, cbl, vdd)
        assert 0 < sig < vdd / 2


class TestSenseAmp:
    def test_sram_delay_independent_of_bitline(self):
        sa = SenseAmp(LSTP32, F32)
        assert sa.latch_delay() > 0

    def test_dram_energy_exceeds_sram_energy(self):
        """Full-rail restore of both bitlines costs far more than the
        limited-swing SRAM sense -- a core SRAM/DRAM asymmetry."""
        sa = SenseAmp(LSTP32, F32)
        cbl = 50e-15
        assert sa.restore_energy(cbl, 1.0) > 3 * sa.latch_energy(cbl)

    def test_energy_scales_with_bitline(self):
        sa = SenseAmp(LSTP32, F32)
        assert sa.restore_energy(80e-15, 1.0) > sa.restore_energy(20e-15, 1.0)

    def test_area_and_leakage_positive(self):
        sa = SenseAmp(LSTP32, F32)
        assert sa.area() > 0
        assert sa.leakage() > 0
