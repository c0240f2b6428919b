"""Unit tests for embedded-DRAM interfaces and line mapping."""

import pytest

from repro.array.organization import ArraySpec, OrgParams
from repro.dram.interface import (
    LineMapping,
    interleaving_speedup,
    main_memory_like,
    page_hit_ratio,
    sram_like,
)
from repro.dram.page_policy import ClosedPagePolicy, OpenPagePolicy
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import build_organization

TECH = technology(32)


@pytest.fixture(scope="module")
def lp_metrics():
    spec = ArraySpec(
        capacity_bits=8 * (8 << 20),
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.LP_DRAM,
        periph_device_type="hp-long-channel",
    )
    return build_organization(
        TECH, spec, OrgParams(ndwl=8, ndbl=32, nspd=1.0, ndsam=8)
    )


class TestSramLikeInterface:
    def test_fields_from_metrics(self, lp_metrics):
        iface = sram_like(lp_metrics, num_subbanks=32)
        assert iface.access_time == lp_metrics.t_access
        assert iface.random_cycle == lp_metrics.t_random_cycle
        assert iface.interleave_cycle < iface.random_cycle

    def test_effective_cycle_interpolates(self, lp_metrics):
        iface = sram_like(lp_metrics, num_subbanks=32)
        none = iface.effective_cycle(0.0)
        all_ = iface.effective_cycle(1.0)
        mid = iface.effective_cycle(0.5)
        assert none < mid < all_
        assert none == pytest.approx(iface.interleave_cycle)
        assert all_ == pytest.approx(iface.random_cycle)

    def test_peak_bandwidth_positive(self, lp_metrics):
        iface = sram_like(lp_metrics, num_subbanks=32)
        assert iface.peak_bandwidth_accesses > 1.0 / iface.random_cycle


class TestMainMemoryLikeInterface:
    def test_open_page_hit_faster_than_miss(self, lp_metrics):
        iface = main_memory_like(lp_metrics, OpenPagePolicy())
        assert iface.expected_latency(1.0) < iface.expected_latency(0.0)

    def test_closed_flat(self, lp_metrics):
        iface = main_memory_like(lp_metrics, ClosedPagePolicy())
        assert iface.expected_latency(0.0) == iface.expected_latency(1.0)

    def test_timings_positive(self, lp_metrics):
        iface = main_memory_like(lp_metrics, OpenPagePolicy())
        assert iface.t_rcd > 0 and iface.t_cas > 0 and iface.t_rp > 0


class TestInterleaving:
    def test_speedup_exceeds_one(self, lp_metrics):
        s = interleaving_speedup(
            lp_metrics.t_random_cycle, lp_metrics.t_interleave, 32
        )
        assert s > 1.5

    def test_single_subbank_no_speedup(self):
        assert interleaving_speedup(10e-9, 1e-9, 1) == pytest.approx(1.0)


class TestLineMapping:
    """Paper section 3.4: why DRAM caches see almost no page hits."""

    def test_sequential_access_kills_set_per_page(self):
        h = page_hit_ratio(
            LineMapping.SET_PER_PAGE, page_bits=8192, line_bits=512,
            assoc=16, sequential_access=True, spatial_locality=0.8,
        )
        assert h == 0.0

    def test_multiple_sets_per_page_helps_normal_access(self):
        few_ways = page_hit_ratio(
            LineMapping.SET_PER_PAGE, page_bits=16384, line_bits=512,
            assoc=8, sequential_access=False, spatial_locality=0.8,
        )
        assert few_ways > 0

    def test_striping_diluted_by_associativity(self):
        low_assoc = page_hit_ratio(
            LineMapping.STRIPED, 8192, 512, assoc=2,
            sequential_access=False, spatial_locality=0.8,
        )
        high_assoc = page_hit_ratio(
            LineMapping.STRIPED, 8192, 512, assoc=16,
            sequential_access=False, spatial_locality=0.8,
        )
        assert high_assoc < low_assoc

    def test_both_mappings_poor_for_random_traffic(self):
        """With no spatial locality (interleaved LLC traffic), neither
        mapping yields page hits -- the paper's justification for the
        SRAM-like interface."""
        for mapping in LineMapping:
            h = page_hit_ratio(
                mapping, 8192, 512, assoc=16,
                sequential_access=False, spatial_locality=0.0,
            )
            assert h == pytest.approx(0.0)
