"""Tests for the 3D-stacked bank partitioning extension."""

import pytest

from repro.array.organization import ArraySpec, OrgParams
from repro.array.stacking import StackedBank, stacking_sweep
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import build_organization

TECH = technology(32)


@pytest.fixture(scope="module")
def base():
    spec = ArraySpec(
        capacity_bits=8 * (16 << 20),
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.COMM_DRAM,
        periph_device_type="lstp",
    )
    return build_organization(
        TECH, spec, OrgParams(ndwl=16, ndbl=64, nspd=2.0, ndsam=8)
    )


@pytest.fixture(scope="module")
def device():
    return TECH.device("lstp")


class TestStackedBank:
    def test_single_layer_is_identity(self, base, device):
        flat = StackedBank(base=base, layers=1, device=device)
        assert flat.access_time == pytest.approx(base.t_access)
        assert flat.footprint == pytest.approx(base.area)
        assert flat.speedup == pytest.approx(1.0)

    def test_footprint_shrinks_linearly(self, base, device):
        four = StackedBank(base=base, layers=4, device=device)
        assert four.footprint == pytest.approx(base.area / 4)

    def test_stacking_speeds_up_wire_bound_banks(self, base, device):
        """Folding a large COMM-DRAM bank must shorten its trees more than
        the TSV hops cost (the premise of stacked partitioning)."""
        four = StackedBank(base=base, layers=4, device=device)
        assert four.speedup > 1.0
        assert four.access_time < base.t_access

    def test_energy_reduced(self, base, device):
        four = StackedBank(base=base, layers=4, device=device)
        assert four.e_read_access < base.e_read_access

    def test_diminishing_returns(self, base, device):
        """Each doubling buys less: the subarray-local path is fixed."""
        sweep = stacking_sweep(base, device, max_layers=8)
        speedups = [s.speedup for s in sweep]
        gains = [b / a for a, b in zip(speedups, speedups[1:])]
        assert all(g >= 0.99 for g in gains)
        assert gains == sorted(gains, reverse=True)

    def test_invalid_layer_count(self, base, device):
        with pytest.raises(ValueError, match="power of two"):
            StackedBank(base=base, layers=3, device=device)

    def test_sweep_layers(self, base, device):
        sweep = stacking_sweep(base, device, max_layers=8)
        assert [s.layers for s in sweep] == [1, 2, 4, 8]
