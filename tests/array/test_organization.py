"""Unit tests for the reference oracle's bank organization builder."""

import pytest

from repro.array.organization import (
    ArraySpec,
    InfeasibleOrganization,
    OrgParams,
)
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import build_organization, enumerate_orgs

TECH = technology(32)


def sram_spec(**kwargs):
    defaults = dict(
        capacity_bits=8 * (1 << 20),  # 1 MB
        output_bits=512,
        assoc=8,
        nbanks=1,
        cell_tech=CellTech.SRAM,
        periph_device_type="hp-long-channel",
    )
    defaults.update(kwargs)
    return ArraySpec(**defaults)


def dram_spec(**kwargs):
    defaults = dict(
        capacity_bits=8 * (8 << 20),  # 8 MB
        output_bits=512,
        assoc=8,
        nbanks=1,
        cell_tech=CellTech.COMM_DRAM,
        periph_device_type="lstp",
    )
    defaults.update(kwargs)
    return ArraySpec(**defaults)


class TestOrgParams:
    def test_power_of_two_enforced(self):
        with pytest.raises(InfeasibleOrganization):
            OrgParams(ndwl=3, ndbl=2, nspd=1.0)
        with pytest.raises(InfeasibleOrganization):
            OrgParams(ndwl=2, ndbl=2, nspd=1.0, ndsam=5)

    def test_positive_nspd(self):
        with pytest.raises(InfeasibleOrganization):
            OrgParams(ndwl=2, ndbl=2, nspd=0.0)


class TestGeometryDerivation:
    def test_capacity_conserved(self):
        spec = sram_spec()
        org = OrgParams(ndwl=4, ndbl=4, nspd=1.0, ndcm=8, ndsam=1)
        m = build_organization(TECH, spec, org)
        total = m.rows * m.cols * org.ndwl * org.ndbl * spec.nbanks
        assert total == spec.capacity_bits

    def test_dram_cannot_column_mux_before_sense(self):
        with pytest.raises(InfeasibleOrganization, match="senses every"):
            build_organization(
                TECH, dram_spec(), OrgParams(ndwl=4, ndbl=4, nspd=1.0, ndcm=4)
            )

    def test_dram_bitline_cap_512(self):
        spec = dram_spec()
        # 8 MB, ndbl=2 -> 4096 rows per subarray: over the DRAM limit.
        with pytest.raises(InfeasibleOrganization, match="sensing limit"):
            build_organization(
                TECH, spec, OrgParams(ndwl=16, ndbl=2, nspd=1.0, ndsam=16)
            )

    def test_way_select_requires_mux(self):
        spec = sram_spec(assoc=8)
        with pytest.raises(InfeasibleOrganization, match="one way"):
            build_organization(
                TECH, spec, OrgParams(ndwl=8, ndbl=8, nspd=1.0, ndcm=2,
                                      ndsam=2)
            )

    def test_page_constraint(self):
        spec = dram_spec(page_bits=4096, assoc=1, output_bits=64)
        org = OrgParams(ndwl=4, ndbl=32, nspd=64.0, ndsam=64)
        m = build_organization(TECH, spec, org)
        assert m.sensed_bits == 4096

    def test_page_mismatch_rejected(self):
        spec = dram_spec(page_bits=4096, assoc=1, output_bits=64)
        with pytest.raises(InfeasibleOrganization, match="page"):
            build_organization(
                TECH, spec, OrgParams(ndwl=4, ndbl=32, nspd=64.0, ndsam=32)
            )

    def test_page_on_sram_rejected(self):
        spec = sram_spec(page_bits=4096)
        with pytest.raises(InfeasibleOrganization,
                           match="page-mode technologies only"):
            build_organization(
                TECH, spec, OrgParams(ndwl=4, ndbl=4, nspd=1.0, ndcm=8,
                                      ndsam=1)
            )


class TestMetrics:
    @pytest.fixture(scope="class")
    def metrics(self):
        return build_organization(
            TECH, sram_spec(), OrgParams(ndwl=4, ndbl=8, nspd=1.0, ndcm=8,
                                         ndsam=1)
        )

    def test_all_timings_positive(self, metrics):
        for f in ("t_access", "t_random_cycle", "t_interleave", "t_decode",
                  "t_bitline", "t_sense", "t_precharge"):
            assert getattr(metrics, f) > 0, f

    def test_access_exceeds_components(self, metrics):
        assert metrics.t_access > metrics.t_decode
        assert metrics.t_access > metrics.t_htree_in + metrics.t_htree_out

    def test_interleave_below_random_cycle(self, metrics):
        assert metrics.t_interleave < metrics.t_random_cycle

    def test_energy_composition(self, metrics):
        assert metrics.e_read_access == pytest.approx(
            metrics.e_activate + metrics.e_read_column + metrics.e_precharge
        )
        assert metrics.e_write_access > 0

    def test_area_efficiency_in_range(self, metrics):
        assert 0.2 < metrics.area_efficiency < 0.95

    def test_sram_no_refresh(self, metrics):
        assert metrics.p_refresh == 0.0

    def test_dram_refresh_positive(self):
        m = build_organization(
            TECH, dram_spec(), OrgParams(ndwl=8, ndbl=32, nspd=1.0, ndsam=8)
        )
        assert m.p_refresh > 0

    def test_sleep_transistors_cut_leakage(self):
        org = OrgParams(ndwl=4, ndbl=8, nspd=1.0, ndcm=8, ndsam=1)
        base = build_organization(TECH, sram_spec(), org)
        slept = build_organization(
            TECH, sram_spec(sleep_transistors=True), org
        )
        assert slept.p_leakage < base.p_leakage
        assert slept.p_leakage > base.p_leakage * 0.45

    def test_nbanks_scale_area_and_leakage(self):
        org = OrgParams(ndwl=4, ndbl=4, nspd=1.0, ndcm=8, ndsam=1)
        one = build_organization(TECH, sram_spec(), org)
        two = build_organization(
            TECH,
            sram_spec(capacity_bits=16 * (1 << 20), nbanks=2),
            org,
        )
        assert two.area == pytest.approx(2 * one.area, rel=0.01)
        assert two.p_leakage == pytest.approx(2 * one.p_leakage, rel=0.01)


class TestEnumeration:
    def test_enumeration_covers_feasible_space(self):
        orgs = enumerate_orgs(sram_spec())
        assert len(orgs) > 100
        feasible = 0
        for org in orgs[:2000]:
            try:
                build_organization(TECH, sram_spec(), org)
                feasible += 1
            except Exception:
                pass
        assert feasible > 0

    def test_wide_page_extends_nspd(self):
        narrow = enumerate_orgs(dram_spec(assoc=1, output_bits=512))
        wide = enumerate_orgs(
            dram_spec(assoc=1, output_bits=64, page_bits=8192)
        )
        assert max(o.nspd for o in wide) > max(o.nspd for o in narrow)

    def test_capacity_divisibility_enforced(self):
        with pytest.raises(InfeasibleOrganization):
            ArraySpec(
                capacity_bits=1000,
                output_bits=512,
                assoc=8,
                cell_tech=CellTech.SRAM,
            )

    @pytest.mark.parametrize("nbanks", [0, -2])
    def test_bank_count_below_one_rejected(self, nbanks):
        with pytest.raises(ValueError, match="nbanks must be >= 1"):
            ArraySpec(capacity_bits=1 << 20, output_bits=512, nbanks=nbanks)

    @pytest.mark.parametrize("field", ["output_bits", "assoc"])
    @pytest.mark.parametrize("value", [0, -8])
    def test_output_bits_and_assoc_below_one_rejected(self, field, value):
        fields = {"output_bits": 512, field: value}
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            ArraySpec(capacity_bits=1 << 20, **fields)
