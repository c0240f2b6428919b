"""Unit tests for repeated-wire design and derating."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.repeaters import optimal_repeated_wire, repeated_wire
from repro.tech.nodes import technology

TECH = technology(32)
HP = TECH.device("hp")
F = TECH.feature_size


class TestOptimalRepeaters:
    def test_beats_unrepeated_long_wire(self):
        wire = TECH.global_
        design = optimal_repeated_wire(HP, wire, F)
        length = 5e-3
        # The unrepeated wire's distributed-RC (Elmore) delay.
        unrepeated = 0.38 * wire.r_per_m * wire.c_per_m * length**2
        assert design.delay(length) < unrepeated

    def test_delay_linear_in_length(self):
        design = optimal_repeated_wire(HP, TECH.global_, F)
        assert design.delay(4e-3) == pytest.approx(2 * design.delay(2e-3))

    def test_plausible_delay_per_mm(self):
        """Repeated global wires at 32 nm run ~50-250 ps/mm."""
        design = optimal_repeated_wire(HP, TECH.global_, F)
        per_mm = design.delay_per_m * 1e-3
        assert 30e-12 < per_mm < 400e-12

    def test_semi_global_slower_than_global(self):
        semi = optimal_repeated_wire(HP, TECH.semi_global, F)
        glob = optimal_repeated_wire(HP, TECH.global_, F)
        assert semi.delay_per_m > glob.delay_per_m

    def test_lstp_repeaters_slower(self):
        lstp = optimal_repeated_wire(TECH.device("lstp"), TECH.global_, F)
        hp = optimal_repeated_wire(HP, TECH.global_, F)
        assert lstp.delay_per_m > hp.delay_per_m


class TestDerating:
    def test_zero_penalty_returns_optimal(self):
        a = repeated_wire(HP, TECH.global_, F, max_delay_penalty=0.0)
        b = optimal_repeated_wire(HP, TECH.global_, F)
        assert a.delay_per_m == b.delay_per_m

    def test_derating_saves_energy(self):
        """The max-repeater-delay constraint trades delay for energy
        (paper section 2.4)."""
        best = optimal_repeated_wire(HP, TECH.global_, F)
        derated = repeated_wire(HP, TECH.global_, F, max_delay_penalty=0.5)
        assert derated.energy_per_m < best.energy_per_m
        assert derated.delay_per_m <= best.delay_per_m * 1.5 + 1e-18

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_budget_respected(self, penalty):
        best = optimal_repeated_wire(HP, TECH.global_, F)
        derated = repeated_wire(HP, TECH.global_, F, max_delay_penalty=penalty)
        assert derated.delay_per_m <= best.delay_per_m * (1 + penalty) * 1.001

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_energy_never_worse_than_optimal(self, penalty):
        best = optimal_repeated_wire(HP, TECH.global_, F)
        derated = repeated_wire(HP, TECH.global_, F, max_delay_penalty=penalty)
        assert derated.energy_per_m <= best.energy_per_m

    def test_leakage_drops_with_derating(self):
        best = optimal_repeated_wire(HP, TECH.global_, F)
        derated = repeated_wire(HP, TECH.global_, F, max_delay_penalty=0.6)
        assert derated.leakage_per_m < best.leakage_per_m
