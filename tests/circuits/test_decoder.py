"""Unit tests for the reference oracle's row decoder model."""

import pytest

from repro.circuits.drivers import WireLoad
from repro.tech.devices import device
from tests.reference_array import WordlineLoad, design_decoder

HP32 = device("hp-long-channel", 32)
F32 = 32e-9


def _wordline(voltage=None):
    return WordlineLoad(
        resistance=2e3,
        capacitance=30e-15,
        pitch=8.6 * F32,
        voltage=voltage if voltage is not None else HP32.vdd,
    )


def _predec_wire():
    return WireLoad(resistance=300.0, capacitance=10e-15)


class TestDecoder:
    def test_more_rows_costs_delay_and_area(self):
        small = design_decoder(HP32, F32, 64, _wordline(), _predec_wire())
        big = design_decoder(HP32, F32, 1024, _wordline(), _predec_wire())
        assert big.delay > small.delay
        assert big.area > small.area
        assert big.leakage > small.leakage

    def test_single_row_degenerate(self):
        d = design_decoder(HP32, F32, 1, _wordline(), _predec_wire())
        assert d.delay == d.wordline_delay
        assert d.energy > 0

    def test_boosted_wordline_more_energy(self):
        normal = design_decoder(HP32, F32, 256, _wordline(), _predec_wire())
        boosted = design_decoder(
            HP32, F32, 256, _wordline(voltage=2.6), _predec_wire()
        )
        assert boosted.energy > 2 * normal.energy

    def test_wordline_delay_within_total(self):
        d = design_decoder(HP32, F32, 256, _wordline(), _predec_wire())
        assert 0 < d.wordline_delay < d.delay

    def test_heavier_wordline_slower(self):
        light = design_decoder(HP32, F32, 256, _wordline(), _predec_wire())
        heavy_wl = WordlineLoad(
            resistance=20e3, capacitance=300e-15, pitch=8.6 * F32,
            voltage=HP32.vdd,
        )
        heavy = design_decoder(HP32, F32, 256, heavy_wl, _predec_wire())
        assert heavy.wordline_delay > light.wordline_delay

    def test_metrics_combine(self):
        a = design_decoder(HP32, F32, 64, _wordline(), _predec_wire())
        b = design_decoder(HP32, F32, 128, _wordline(), _predec_wire())
        combined = a + b
        assert combined.delay == max(a.delay, b.delay)
        assert combined.energy == pytest.approx(a.energy + b.energy)
        assert combined.area == pytest.approx(a.area + b.area)

    def test_energy_reasonable_magnitude(self):
        """A 256-row decode at 32 nm lands in the fJ-pJ band."""
        d = design_decoder(HP32, F32, 256, _wordline(), _predec_wire())
        assert 1e-15 < d.energy < 10e-12
