"""Unit tests for the reference oracle's H-tree distribution network."""

import pytest

from repro.tech.nodes import technology
from tests.reference_array import design_htree

TECH = technology(32)
HP = TECH.device("hp-long-channel")


def make(width=2e-3, height=2e-3, wires=512, mats=16):
    return design_htree(TECH, HP, width, height, wires, mats)


class TestHTree:
    def test_delay_grows_with_bank_size(self):
        assert make(4e-3, 4e-3).delay > make(1e-3, 1e-3).delay

    def test_path_length_half_perimeter(self):
        t = make(3e-3, 1e-3)
        assert t.path_length == pytest.approx(2e-3)

    def test_occupancy_below_delay(self):
        t = make(mats=64)
        assert t.occupancy < t.delay

    def test_more_mats_more_levels(self):
        assert make(mats=64).levels > make(mats=4).levels

    def test_energy_scales_with_bits(self):
        t = make()
        assert t.energy(512) == pytest.approx(2 * t.energy(256))
        assert t.energy() == pytest.approx(t.energy(512))

    def test_leakage_scales_with_wires(self):
        assert make(wires=512).leakage > make(wires=64).leakage

    def test_buffer_delay_included(self):
        t = make(mats=64)
        assert t.buffer_delay > 0
        assert t.delay > t.design.delay(t.path_length)

    def test_wiring_area_positive(self):
        assert make().wiring_area > 0

    def test_derated_htree_saves_energy(self):
        base = design_htree(TECH, HP, 2e-3, 2e-3, 512, 16)
        derated = design_htree(
            TECH, HP, 2e-3, 2e-3, 512, 16, max_repeater_delay_penalty=0.5
        )
        assert derated.energy() <= base.energy()
