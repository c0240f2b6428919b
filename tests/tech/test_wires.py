"""Unit tests for the wire models."""

import pytest

from repro.tech.wires import global_wire, local_wire, semi_global_wire


class TestGeometry:
    @pytest.mark.parametrize("node", [90, 65, 45, 32])
    def test_pitch_hierarchy(self, node):
        local = local_wire(node)
        semi = semi_global_wire(node)
        glob = global_wire(node)
        assert local.pitch < semi.pitch < glob.pitch
        assert semi.pitch == pytest.approx(4 * node * 1e-9)
        assert glob.pitch == pytest.approx(8 * node * 1e-9)

    def test_width_is_half_pitch(self):
        w = semi_global_wire(32)
        assert w.width == pytest.approx(w.pitch / 2)

    def test_thickness_follows_aspect_ratio(self):
        w = global_wire(45)
        assert w.thickness == pytest.approx(w.aspect_ratio * w.width)


class TestElectricals:
    @pytest.mark.parametrize("node", [90, 65, 45, 32])
    def test_resistance_hierarchy(self, node):
        """Narrower wires are more resistive per unit length."""
        assert (
            local_wire(node).r_per_m
            > semi_global_wire(node).r_per_m
            > global_wire(node).r_per_m
        )

    def test_resistance_worsens_with_scaling(self):
        """Size effects + smaller cross-sections: R/m rises each node."""
        for maker in (semi_global_wire, global_wire):
            rs = [maker(n).r_per_m for n in (90, 65, 45, 32)]
            assert rs == sorted(rs)

    def test_capacitance_roughly_constant(self):
        """C/m stays in the 0.1-0.3 fF/um band across nodes."""
        for node in (90, 65, 45, 32):
            c = semi_global_wire(node).c_per_m
            assert 0.1e-9 < c < 0.3e-9

    def test_tungsten_more_resistive_than_copper(self):
        cu = local_wire(32)
        w = local_wire(32, tungsten=True)
        assert w.r_per_m > 2.5 * cu.r_per_m
        assert w.c_per_m == pytest.approx(cu.c_per_m)

    def test_interpolated_node(self):
        r78 = semi_global_wire(78).r_per_m
        assert (
            semi_global_wire(90).r_per_m < r78 < semi_global_wire(65).r_per_m
        )

    def test_node_out_of_range_raises(self):
        with pytest.raises(ValueError, match="outside modeled range"):
            semi_global_wire(120)


class TestDelay:
    def test_global_wire_faster_than_semi_global(self):
        """Fatter wires have lower RC per mm^2."""
        fat, thin = global_wire(32), semi_global_wire(32)
        assert fat.r_per_m * fat.c_per_m < thin.r_per_m * thin.c_per_m
