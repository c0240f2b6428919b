"""Property-based tests on the bank-organization invariants."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.array.organization import (
    ArraySpec,
    InfeasibleOrganization,
    OrgParams,
)
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from tests.reference_array import InfeasibleSubarray, build_organization

TECH = technology(32)

power_of_two = st.sampled_from([1, 2, 4, 8, 16, 32, 64])
capacity_kb = st.sampled_from([64, 256, 1024, 4096, 16384])
cell_techs = st.sampled_from(list(CellTech))


def try_build(spec, org):
    try:
        return build_organization(TECH, spec, org)
    except (InfeasibleOrganization, InfeasibleSubarray):
        return None


@given(
    capacity_kb=capacity_kb,
    ndwl=power_of_two,
    ndbl=power_of_two,
    nspd=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    ndcm=st.sampled_from([1, 2, 4, 8, 16]),
    ndsam=st.sampled_from([1, 2, 4, 8, 16]),
    cell_tech=cell_techs,
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
def test_feasible_design_invariants(capacity_kb, ndwl, ndbl, nspd, ndcm,
                                    ndsam, cell_tech):
    """Every design the builder accepts satisfies the core invariants."""
    traits = cell_tech.traits
    if not traits.column_mux_allowed:
        assume(ndcm == 1)
    spec = ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=cell_tech,
        periph_device_type=traits.default_periphery,
    )
    m = try_build(spec, OrgParams(ndwl, ndbl, nspd, ndcm, ndsam))
    assume(m is not None)

    # Capacity conservation.
    assert m.rows * m.cols * ndwl * ndbl == spec.capacity_bits
    # Activation bounded by the bank.
    assert 1 <= m.nact <= ndwl
    # Sensed bits cover at least the output (rounded to subarrays).
    assert m.sensed_bits >= spec.output_bits // (ndcm * ndsam)
    # Timing sanity.
    assert m.t_access > 0
    assert m.t_random_cycle > 0
    assert m.t_interleave <= m.t_random_cycle * 1.0001
    assert m.t_access >= m.t_htree_in + m.t_htree_out
    # Writeback time: restore after a destructive read, or an explicit
    # write pulse (e.g. stt-ram); refresh only where the traits say so.
    assert (m.t_writeback > 0) == (
        traits.destructive_read or traits.write_pulse_time > 0
    )
    assert (m.p_refresh > 0) == traits.needs_refresh
    # Energy decomposition.
    assert m.e_read_access == pytest.approx(
        m.e_activate + m.e_read_column + m.e_precharge
    )
    assert m.e_write_access >= m.e_read_access * 0.5
    # Geometry.
    assert 0.0 < m.area_efficiency < 1.0
    assert m.area > m.bank_width * m.bank_height * 0.5


@given(
    ndwl=power_of_two,
    ndbl=power_of_two,
    nspd=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_dram_bitline_limit_always_enforced(ndwl, ndbl, nspd):
    spec = ArraySpec(
        capacity_bits=8 * (32 << 20),
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.COMM_DRAM,
        periph_device_type="lstp",
    )
    m = try_build(spec, OrgParams(ndwl, ndbl, nspd, 1, 8))
    if m is not None:
        assert m.rows <= 512


@given(nbanks=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=10, deadline=None)
def test_banks_scale_linearly(nbanks):
    """N identical banks: area, leakage, refresh all scale by N."""
    org = OrgParams(4, 8, 1.0, 1, 8)
    base_spec = ArraySpec(
        capacity_bits=8 * (1 << 20),
        output_bits=512,
        assoc=8,
        nbanks=1,
        cell_tech=CellTech.LP_DRAM,
        periph_device_type="hp-long-channel",
    )
    scaled_spec = ArraySpec(
        capacity_bits=8 * (1 << 20) * nbanks,
        output_bits=512,
        assoc=8,
        nbanks=nbanks,
        cell_tech=CellTech.LP_DRAM,
        periph_device_type="hp-long-channel",
    )
    base = try_build(base_spec, org)
    scaled = try_build(scaled_spec, org)
    assume(base is not None and scaled is not None)
    assert scaled.area == pytest.approx(nbanks * base.area, rel=1e-6)
    assert scaled.p_leakage == pytest.approx(nbanks * base.p_leakage,
                                             rel=1e-6)
    assert scaled.p_refresh == pytest.approx(nbanks * base.p_refresh,
                                             rel=1e-6)
    # Per-bank timing is unchanged.
    assert scaled.t_access == pytest.approx(base.t_access, rel=1e-9)
