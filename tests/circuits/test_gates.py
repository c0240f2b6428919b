"""Unit tests for gate primitives and the analytical gate-area model."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.gates import (
    folded_strip_area,
    horowitz,
    inverter,
    min_width,
    nand,
)
from repro.tech.devices import device

HP32 = device("hp", 32)
F32 = 32e-9


class TestHorowitz:
    def test_step_input_reduces_to_log(self):
        tau = 10e-12
        import math

        assert horowitz(0.0, tau) == pytest.approx(tau * math.log(2))

    def test_slow_ramp_increases_delay(self):
        tau = 10e-12
        assert horowitz(40e-12, tau) > horowitz(0.0, tau)

    def test_zero_tau(self):
        assert horowitz(5e-12, 0.0) == 0.0

    @given(st.floats(min_value=0, max_value=1e-9),
           st.floats(min_value=1e-13, max_value=1e-9))
    def test_monotone_in_ramp(self, ramp, tau):
        assert horowitz(ramp + 1e-12, tau) >= horowitz(ramp, tau)


class TestGateElectricals:
    def test_inverter_input_cap_scales_with_width(self):
        small = inverter(HP32, 1e-6)
        big = inverter(HP32, 2e-6)
        assert big.c_in == pytest.approx(2 * small.c_in)

    def test_inverter_pmos_ratio(self):
        g = inverter(HP32, 1e-6)
        assert g.w_p == pytest.approx(HP32.n_to_p_ratio * 1e-6)

    def test_nand_preserves_pulldown_drive(self):
        """Upsized series NMOS keeps r_drive equal to the inverter's."""
        inv = inverter(HP32, 1e-6)
        g = nand(HP32, 2, 1e-6)
        assert g.r_drive == pytest.approx(inv.r_drive)

    def test_nand_costs_more_input_cap(self):
        assert nand(HP32, 3, 1e-6).c_in > inverter(HP32, 1e-6).c_in

    def test_delay_increases_with_load(self):
        g = inverter(HP32, 1e-6)
        d1, _ = g.delay(1e-15)
        d2, _ = g.delay(10e-15)
        assert d2 > d1

    def test_fo4_delay_close_to_device_fo4(self):
        """An inverter driving 4 copies of itself ~ the device FO4."""
        g = inverter(HP32, 1e-6)
        load = 4 * g.c_in
        d, _ = g.delay(load)
        assert d == pytest.approx(HP32.fo4, rel=0.35)

    def test_leakage_positive(self):
        assert inverter(HP32, 1e-6).leakage() > 0


class TestAreaModel:
    def test_unconstrained_area_scales_with_inputs(self):
        a2 = nand(HP32, 2, 1e-6).area(F32)
        a4 = nand(HP32, 4, 1e-6).area(F32)
        assert a4 > a2

    def test_folding_under_tight_pitch(self):
        """A wide transistor folded into a small pitch occupies more area
        than into a generous pitch -- the SRAM/DRAM pitch-match effect."""
        w_total = 4e-6
        tight, fingers_tight = folded_strip_area(w_total, 10 * F32, F32)
        loose, fingers_loose = folded_strip_area(w_total, 60 * F32, F32)
        assert fingers_tight > fingers_loose
        assert tight > loose / 2  # folding is not free

    def test_single_finger_when_fits(self):
        _, fingers = folded_strip_area(F32, 10 * F32, F32)
        assert fingers == 1

    @given(st.floats(min_value=1e-8, max_value=1e-4))
    def test_area_positive(self, w):
        area, fingers = folded_strip_area(w, 5 * F32, F32)
        assert area > 0 and fingers >= 1

    def test_gate_area_with_pitch_constraint(self):
        g = inverter(HP32, 5e-6)
        assert g.area(F32, pitch=4 * F32) > 0

    def test_min_width(self):
        assert min_width(HP32, F32) == pytest.approx(2 * F32)
