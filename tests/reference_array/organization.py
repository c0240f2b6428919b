"""The bank organization one candidate at a time: the reference oracle.

:func:`enumerate_orgs` lists the candidate grid, :func:`derive_geometry`
checks one tuple's structure, and :func:`build_organization` composes a
:class:`~tests.reference_array.subarray.Subarray` and two
:class:`~tests.reference_array.htree.HTree` objects into the
:class:`~repro.array.organization.ArrayMetrics` that
:mod:`repro.array.kernels` must reproduce with ``==``.
"""

from __future__ import annotations

import math
from functools import cached_property

from repro.array.organization import (
    _BANK_AREA_OVERHEAD,
    _COLMUX_FO4,
    _CONTROL_ENERGY_FRACTION,
    _CONTROL_LEAKAGE_FRACTION,
    _CONTROL_WIRES,
    MAX_COLS,
    MAX_ROWS,
    MIN_COLS,
    MIN_ROWS,
    ArrayMetrics,
    ArraySpec,
    InfeasibleOrganization,
    OrgGeometry,
    OrgParams,
    _org_grid,
)
from repro.models.area import AreaBreakdown
from repro.tech.nodes import Technology
from tests.reference_array.htree import HTree, design_htree
from tests.reference_array.subarray import Subarray


def mats_in_bank(ndwl: int, ndbl: int) -> int:
    """Number of mats (2x2 subarray tiles) covering an ndwl x ndbl
    subarray grid."""
    return max(1, math.ceil(ndwl / 2) * math.ceil(ndbl / 2))


def derive_geometry(spec: ArraySpec, org: OrgParams) -> OrgGeometry:
    """Derive the subarray geometry of ``(spec, org)`` from arithmetic alone.

    Performs every structural feasibility check that does not require a
    technology object -- integral rows/cols, row/col ranges, the cell
    traits' bitline sensing limit, mux divisibility, active-subarray and
    way-select counts, and page-size matching -- and raises
    :class:`InfeasibleOrganization` on the first violation.  This is the
    scalar statement of the optimizer's cheap pre-filter, which rejects
    the vast majority of candidate tuples without building any circuit
    objects; :func:`~repro.array.organization.survivor_arrays` evaluates
    the same checks over the whole grid at once.
    """
    traits = spec.cell_tech.traits
    if org.ndcm != 1 and not traits.column_mux_allowed:
        raise InfeasibleOrganization(
            f"{spec.cell_tech} senses every bitline; column muxing before "
            "the sense amps (ndcm > 1) is not possible"
        )
    rows_f = spec.sets_per_bank / (org.ndbl * org.nspd)
    cols_f = spec.output_bits * spec.assoc * org.nspd / org.ndwl
    if rows_f != int(rows_f) or cols_f != int(cols_f):
        raise InfeasibleOrganization(
            f"non-integral subarray ({rows_f} x {cols_f})"
        )
    rows, cols = int(rows_f), int(cols_f)
    if not MIN_ROWS <= rows <= MAX_ROWS:
        raise InfeasibleOrganization(f"rows {rows} out of range")
    max_cells = traits.max_bitline_cells
    if max_cells is not None and rows > max_cells:
        raise InfeasibleOrganization(
            f"{rows} cells per bitline exceeds {spec.cell_tech}'s "
            f"{max_cells}-cell sensing limit"
        )
    if not MIN_COLS <= cols <= MAX_COLS:
        raise InfeasibleOrganization(f"cols {cols} out of range")
    if cols % (org.ndcm * org.ndsam):
        raise InfeasibleOrganization("mux degrees must divide columns")

    # Output bits produced by one activated subarray.  Non-power-of-two
    # associativities leave the last active subarray partially used, so
    # the count rounds up rather than requiring exact tiling.
    out_per_sub = cols // (org.ndcm * org.ndsam)
    if out_per_sub == 0:
        raise InfeasibleOrganization("mux degree consumes all columns")
    nact = math.ceil(spec.output_bits / out_per_sub)
    if nact > org.ndwl:
        raise InfeasibleOrganization(
            f"access needs {nact} active subarrays, bank has "
            f"{org.ndwl} per row"
        )
    # A set-associative array must be able to mux down to one way.
    if spec.assoc > 1 and org.ndcm * org.ndsam < spec.assoc:
        raise InfeasibleOrganization(
            "mux degree cannot select one way out of the set"
        )

    # Where column muxing is disallowed ndcm is already forced to 1, so
    # every bitline is sensed either way.
    sensed_per_sub = cols // org.ndcm
    sensed_bits = nact * sensed_per_sub

    if spec.page_bits is not None:
        if not traits.supports_page_mode:
            raise InfeasibleOrganization(
                f"page size applies to page-mode technologies only, "
                f"not {spec.cell_tech}"
            )
        if sensed_bits != spec.page_bits:
            raise InfeasibleOrganization(
                f"activation senses {sensed_bits} bits, page is "
                f"{spec.page_bits}"
            )

    return OrgGeometry(
        rows=rows,
        cols=cols,
        nact=nact,
        sensed_bits=sensed_bits,
        sense_amps_per_sub=sensed_per_sub,
    )


def prefilter_org(spec: ArraySpec, org: OrgParams) -> OrgGeometry | None:
    """Cheap structural feasibility check: geometry, or None if infeasible.

    Candidates rejected here would also be rejected by
    :func:`build_organization`; passing is necessary but not sufficient
    (electrical checks such as the DRAM sense-signal margin still run at
    build time).
    """
    try:
        return derive_geometry(spec, org)
    except InfeasibleOrganization:
        return None


def enumerate_orgs(spec: ArraySpec) -> list[OrgParams]:
    """All structurally plausible partitioning tuples for ``spec``.

    Infeasible tuples are cheap to reject later; this enumeration only
    enforces the power-of-two structure and mux applicability.  Sweeps
    use :func:`~repro.array.organization.survivor_arrays`, which applies
    the structural pre-filter to the whole grid at once.
    """
    ndwls, ndbls, nspds, ndcms, ndsams = _org_grid(spec)
    candidates = []
    for ndwl in ndwls:
        for ndbl in ndbls:
            for nspd in nspds:
                for ndcm in ndcms:
                    for ndsam in ndsams:
                        candidates.append(
                            OrgParams(ndwl, ndbl, nspd, ndcm, ndsam)
                        )
    return candidates


def build_organization(
    tech: Technology,
    spec: ArraySpec,
    org: OrgParams,
    geometry: OrgGeometry | None = None,
) -> ArrayMetrics:
    """Evaluate one partitioning tuple; raises InfeasibleOrganization.

    The scalar reference for one design point: the optimizer reads its
    designs from :mod:`repro.array.kernels` arrays, which must reproduce
    this composition bit for bit.  ``geometry`` skips re-deriving a
    pre-filtered geometry and changes none of the returned numbers.
    """
    return _Builder(tech, spec, org, geometry=geometry).metrics()


class _Builder:
    """Derives and composes all metrics for one design point."""

    def __init__(
        self,
        tech: Technology,
        spec: ArraySpec,
        org: OrgParams,
        geometry: OrgGeometry | None = None,
    ):
        self.tech = tech
        self.spec = spec
        self.org = org
        self.periph = tech.device(spec.periph_device_type)
        self.cell = tech.cell(spec.cell_tech, spec.periph_device_type)
        self.traits = spec.cell_tech.traits
        if geometry is None:
            geometry = derive_geometry(spec, org)
        self.rows = geometry.rows
        self.cols = geometry.cols
        self.nact = geometry.nact
        self.sensed_bits = geometry.sensed_bits
        self.sense_amps_per_sub = geometry.sense_amps_per_sub

        self.subarray = Subarray(
            tech=self.tech,
            cell=self.cell,
            periph=self.periph,
            rows=self.rows,
            cols=self.cols,
        )
        self.subarray.check_sense_feasible()

        self.num_mats = mats_in_bank(org.ndwl, org.ndbl)
        self.bank_width = org.ndwl * self.subarray.width
        self.bank_height = org.ndbl * self.subarray.height

    # ------------------------------------------------------------------ #

    @cached_property
    def _htree_wire(self):
        # The bank-routing wire plane is a trait: commodity DRAM
        # processes have few, slow metal layers (the cost structure that
        # makes them dense), so bank routing runs on the intermediate
        # plane; logic processes route on fast top metal.
        return self.tech.htree_wire(self.spec.cell_tech)

    def _design_htree(self, num_wires: int) -> HTree:
        return design_htree(
            self.tech,
            self.periph,
            self.bank_width,
            self.bank_height,
            num_wires=num_wires,
            num_mats=self.num_mats,
            max_repeater_delay_penalty=self.spec.max_repeater_delay_penalty,
            wire=self._htree_wire,
        )

    @cached_property
    def htree_in(self) -> HTree:
        # Global circuitry uses the same device family as the periphery
        # (paper Table 1: long-channel HP for SRAM/LP-DRAM, LSTP for
        # COMM-DRAM).
        return self._design_htree(self.spec.address_bits + _CONTROL_WIRES)

    @cached_property
    def htree_out(self) -> HTree:
        return self._design_htree(self.spec.output_bits)

    # ------------------------------------------------------------------ #

    def metrics(self) -> ArrayMetrics:
        sub = self.subarray
        spec, org = self.spec, self.org

        t_colmux = _COLMUX_FO4 * self.periph.fo4
        t_access = (
            self.htree_in.delay
            + sub.decoder.delay
            + sub.t_bitline
            + sub.t_sense
            + t_colmux
            + self.htree_out.delay
        )
        t_random_cycle = (
            sub.decoder.wordline_delay
            + sub.t_bitline
            + sub.t_sense
            + sub.t_writeback
            + sub.t_precharge
        )
        t_interleave = max(
            self.htree_in.occupancy,
            self.htree_out.occupancy,
            t_colmux,
        )

        # --- energies ---------------------------------------------------
        e_wordlines = self.nact * sub.e_wordline
        e_sense = sub.e_read_bitlines(self.sensed_bits)
        e_activate = e_wordlines + e_sense + self.htree_in.energy()
        e_colmux = (
            spec.output_bits
            * self.periph.c_gate
            * 8.0
            * self.tech.feature_size
            * self.periph.vdd**2
        )
        e_read_column = e_colmux + self.htree_out.energy()
        e_write_column = (
            e_colmux
            + self.htree_out.energy()
            + sub.e_write_bitlines(spec.output_bits)
        )
        # Precharge dissipates roughly the sense-restore charge again for
        # half-VDD-equalized technologies; otherwise it restores only the
        # small read swing.  The fraction is a trait.
        swing_fraction = self.traits.precharge_swing_fraction
        e_precharge = (
            self.sensed_bits
            * sub.bitline_capacitance
            * self.cell.vdd_cell**2
            * swing_fraction
            * 0.5
        )
        scale = 1.0 + _CONTROL_ENERGY_FRACTION
        e_activate *= scale
        e_read_column *= scale
        e_write_column *= scale
        e_precharge *= scale

        # --- leakage ------------------------------------------------------
        num_subs = org.ndwl * org.ndbl
        leak_per_sub = sub.leakage(self.sense_amps_per_sub)
        if spec.sleep_transistors:
            active_fraction = self.nact / num_subs
            leak_array = leak_per_sub * num_subs * (
                active_fraction + 0.5 * (1.0 - active_fraction)
            )
        else:
            leak_array = leak_per_sub * num_subs
        leak_bank = (
            leak_array + self.htree_in.leakage + self.htree_out.leakage
        ) * (1.0 + _CONTROL_LEAKAGE_FRACTION)
        p_leakage = leak_bank * spec.nbanks

        # --- refresh ------------------------------------------------------
        p_refresh = 0.0
        if self.traits.needs_refresh:
            assert self.cell.retention_time is not None
            refresh_ops_per_bank = self.rows * org.ndbl * org.ndwl / self.nact
            e_refresh_op = (e_activate + e_precharge)
            p_refresh = (
                spec.nbanks
                * refresh_ops_per_bank
                * e_refresh_op
                / self.cell.retention_time
            )

        # --- area -----------------------------------------------------------
        subarrays_area = num_subs * sub.area * 1.02  # mat control strips
        wiring = self.htree_in.wiring_area + self.htree_out.wiring_area
        bank_area = (subarrays_area + 0.5 * wiring) * (1 + _BANK_AREA_OVERHEAD)
        total_area = bank_area * spec.nbanks
        cell_area = num_subs * sub.cell_area * spec.nbanks

        return ArrayMetrics(
            spec=spec,
            org=org,
            rows=self.rows,
            cols=self.cols,
            nact=self.nact,
            sensed_bits=self.sensed_bits,
            t_access=t_access,
            t_random_cycle=t_random_cycle,
            t_interleave=t_interleave,
            t_decode=sub.decoder.delay,
            t_wordline=sub.decoder.wordline_delay,
            t_bitline=sub.t_bitline,
            t_sense=sub.t_sense,
            t_writeback=sub.t_writeback,
            t_precharge=sub.t_precharge,
            t_htree_in=self.htree_in.delay,
            t_htree_out=self.htree_out.delay,
            e_activate=e_activate,
            e_read_column=e_read_column,
            e_write_column=e_write_column,
            e_precharge=e_precharge,
            p_leakage=p_leakage,
            p_refresh=p_refresh,
            area=total_area,
            bank_width=self.bank_width,
            bank_height=self.bank_height,
            area_efficiency=cell_area / total_area,
        )


def reference_area_breakdown(
    tech: Technology, metrics: ArrayMetrics
) -> AreaBreakdown:
    """The component areas of a solved design, read off a rebuilt
    :class:`_Builder`: the statement
    :func:`~repro.models.area.area_breakdown` must reproduce."""
    builder = _Builder(tech, metrics.spec, metrics.org)
    sub = builder.subarray
    nsubs = metrics.org.ndwl * metrics.org.ndbl * metrics.spec.nbanks

    cells = nsubs * sub.cell_area
    decode = nsubs * sub.decoder.area
    # Sense strip: the height overhead times the array width.
    sense = nsubs * (sub.height - sub.cell_array_height) * sub.width
    routing = (
        builder.htree_in.wiring_area + builder.htree_out.wiring_area
    ) * 0.5 * metrics.spec.nbanks
    accounted = cells + decode + sense + routing
    overhead = max(metrics.area - accounted, 0.0)
    return AreaBreakdown(
        cells=cells,
        wordline_drivers_and_decode=decode,
        sense_amps=sense,
        htree_wiring=routing,
        overhead=overhead,
        total=metrics.area,
    )
