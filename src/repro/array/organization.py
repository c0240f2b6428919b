"""Bank organization: partitioning parameters to complete array metrics.

A bank is an ``ndwl x ndbl`` grid of subarrays (grouped 2x2 into mats)
reached by address and data H-trees.  The partitioning parameters follow
CACTI:

* ``ndwl`` -- wordline divisions (subarray columns across the bank),
* ``ndbl`` -- bitline divisions (subarray rows down the bank),
* ``nspd`` -- sets mapped onto one wordline (relative row widening),
* ``ndcm`` -- column-mux degree before the sense amps (only where the
  cell traits allow it; charge-share DRAM senses every bitline -- that
  *is* the page),
* ``ndsam`` -- output mux degree after the sense amps.

From one tuple the module derives subarray geometry, how many subarrays
activate per access, and composes access time, random cycle time,
multisubbank interleave cycle time, per-access energies, leakage, refresh
power, and area.  The optimizer in :mod:`repro.core.optimizer` sweeps this
space exhaustively.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as _np

from repro.array.htree import HTree, design_htree
from repro.array.mat import mats_in_bank
from repro.array.subarray import InfeasibleSubarray, Subarray
from repro.tech.cells import CellTech
from repro.tech.nodes import Technology

#: Fraction of dynamic energy added for control logic and clocking.
_CONTROL_ENERGY_FRACTION = 0.05

#: Fraction of leakage added for control/IO circuitry.
_CONTROL_LEAKAGE_FRACTION = 0.05

#: Area overhead for bank-level control, redundancy, and pads.
_BANK_AREA_OVERHEAD = 0.05

#: Control wires accompanying the address on the in-tree.
_CONTROL_WIRES = 8

#: Delay of the post-sense column mux / way select, in FO4s.
_COLMUX_FO4 = 3.0

#: Structural limits on candidate subarrays.
MIN_ROWS, MAX_ROWS = 8, 16384
MIN_COLS, MAX_COLS = 16, 65536

#: The DRAM technologies declare ``max_bitline_cells = 512`` in their
#: traits: beyond that, charge-share signal margins against noise,
#: offset, and cell-capacitance variation make sensing unreliable, which
#: is why commodity parts stop there.  Kept as a named constant for
#: reference and tests; the model reads the trait.
MAX_DRAM_ROWS = 512


class InfeasibleOrganization(ValueError):
    """Raised when a partitioning tuple cannot realize the array spec."""


@dataclass(frozen=True)
class OrgGeometry:
    """Structural facts derivable from (spec, org) by arithmetic alone."""

    rows: int  #: rows per subarray
    cols: int  #: columns per subarray
    nact: int  #: subarrays activated per access
    sensed_bits: int  #: bitline pairs sensed per access
    sense_amps_per_sub: int  #: sense amplifiers per subarray


@dataclass(frozen=True)
class OrgParams:
    """One point in the partitioning space."""

    ndwl: int
    ndbl: int
    nspd: float
    ndcm: int = 1
    ndsam: int = 1

    def __post_init__(self) -> None:
        for name in ("ndwl", "ndbl", "ndcm", "ndsam"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise InfeasibleOrganization(
                    f"{name} must be a positive power of two, got {value}"
                )
        if self.nspd <= 0:
            raise InfeasibleOrganization("nspd must be positive")


@dataclass(frozen=True)
class ArraySpec:
    """Low-level specification of one physical array (data or tag).

    ``capacity_bits`` covers all banks.  ``output_bits`` is what one access
    delivers at the bank edge; ``assoc`` rows share a set (cache data/tag
    arrays) -- use 1 for plain memories.  ``page_bits``, when set,
    constrains the sensed bits per activation (main-memory page size).
    """

    capacity_bits: int
    output_bits: int
    assoc: int = 1
    nbanks: int = 1
    cell_tech: CellTech = CellTech.SRAM
    periph_device_type: str = "hp-long-channel"
    page_bits: int | None = None
    sleep_transistors: bool = False
    max_repeater_delay_penalty: float = 0.0

    def __post_init__(self) -> None:
        # Accept a registry name for cell_tech; unknown names raise a
        # ValueError listing the registered technologies.
        object.__setattr__(self, "cell_tech", CellTech(self.cell_tech))
        for name in ("nbanks", "output_bits", "assoc"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.capacity_bits % (self.nbanks * self.output_bits * self.assoc):
            raise InfeasibleOrganization(
                "capacity must divide evenly into banks x sets x output bits"
            )

    @property
    def bits_per_bank(self) -> int:
        return self.capacity_bits // self.nbanks

    @property
    def sets_per_bank(self) -> int:
        return self.bits_per_bank // (self.output_bits * self.assoc)

    @property
    def address_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(self.sets_per_bank, 2))))


@dataclass(frozen=True)
class ArrayMetrics:
    """Complete evaluated metrics of one (spec, org) design point."""

    spec: ArraySpec
    org: OrgParams
    rows: int  #: rows per subarray
    cols: int  #: columns per subarray
    nact: int  #: subarrays activated per access
    sensed_bits: int  #: bitline pairs sensed per access
    # timing (s)
    t_access: float
    t_random_cycle: float
    t_interleave: float
    t_decode: float
    t_wordline: float
    t_bitline: float
    t_sense: float
    t_writeback: float
    t_precharge: float
    t_htree_in: float
    t_htree_out: float
    # energy (J per access)
    e_activate: float  #: row open: decode + wordline + sense (+restore)
    e_read_column: float  #: column path + data out for a read
    e_write_column: float  #: column path + data in for a write
    e_precharge: float  #: bitline restore
    # power (W)
    p_leakage: float
    p_refresh: float
    # geometry
    area: float  #: total area, all banks (m^2)
    bank_width: float
    bank_height: float
    area_efficiency: float

    @property
    def e_read_access(self) -> float:
        """Total dynamic energy of one full read access (J)."""
        return self.e_activate + self.e_read_column + self.e_precharge

    @property
    def e_write_access(self) -> float:
        return self.e_activate + self.e_write_column + self.e_precharge


def derive_geometry(spec: ArraySpec, org: OrgParams) -> OrgGeometry:
    """Derive the subarray geometry of ``(spec, org)`` from arithmetic alone.

    Performs every structural feasibility check that does not require a
    technology object -- integral rows/cols, row/col ranges, the cell
    traits' bitline sensing limit, mux divisibility, active-subarray and
    way-select counts, and page-size matching -- and raises
    :class:`InfeasibleOrganization` on the first violation.  This is the
    scalar statement of the optimizer's cheap pre-filter, which rejects
    the vast majority of candidate tuples without building any circuit
    objects; :func:`survivor_arrays` evaluates the same checks over the
    whole grid at once.
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


class EvalCache:
    """Cross-candidate memoization for one technology node.

    Many partitioning tuples share the same ``(rows, cols)`` subarray;
    caching its circuit terms makes the sweep cost proportional to the
    number of *distinct* subarrays rather than the number of
    candidates.  The batch sweep
    (:func:`~repro.array.kernels.evaluate_batch`) memoizes one compact
    float64 term row per distinct subarray (:meth:`subarray_terms`,
    columns :data:`~repro.array.kernels.SUBARRAY_TERMS`), keyed on
    ``(rows, cols)`` under (cell technology, periphery, node).  A
    subarray counts as a miss the first time it is looked up and as a
    hit on every later lookup, one lookup per candidate.

    The structural pre-filter's survivor batches are memoized too
    (:meth:`survivors`), keyed on the spec fields the pre-filter reads
    -- not the node, so one batch serves every node.  A :meth:`batch`
    scope lets a batch of solves pay for its set-up once: the first
    survivor lookup in the scope pre-filters every sweep the scope
    announced, and the first term lookup of each (cell technology,
    periphery, node) group builds the term rows of all the group's
    announced survivors in one call.  Safe to share across every solve
    at one node; results are bit-identical to uncached evaluation
    because the same computations run in the same order.
    """

    def __init__(self) -> None:
        self._survivors: dict[tuple, object] = {}
        self._terms: dict[tuple, dict[tuple[int, int], _np.ndarray]] = {}
        #: Per group, every subarray looked up so far (the hit/miss
        #: account; a row built ahead by a batch scope is not in it).
        self._seen: dict[tuple, set[tuple[int, int]]] = {}
        #: Sweeps the open batch scope announced and nothing has
        #: pre-filtered yet; None outside a scope.
        self._announced: list | None = None
        #: Per group, survivor batches whose term rows are still to be
        #: built ahead.
        self._pending: dict[tuple, list] = {}
        self.subarray_hits = 0
        self.subarray_misses = 0

    @staticmethod
    def _group(tech: Technology, spec: ArraySpec) -> tuple:
        return (spec.cell_tech, spec.periph_device_type, tech.node_nm)

    @contextmanager
    def batch(self, sweeps):
        """Scope a batch of array sweeps, ``(tech, spec)`` pairs, that
        is about to run on this cache.

        Work is done only when a sweep runs, so a batch whose solves
        are all served from a store costs nothing.  A scope opened
        inside another is a no-op: the outer scope announced its
        sweeps.  Neither the numbers nor the hit/miss counts change.
        """
        if self._announced is not None:
            yield
            return
        self._announced = list(sweeps)
        try:
            yield
        finally:
            self._announced = None
            self._pending = {}

    def survivors(self, spec: ArraySpec, build):
        """The pre-filter survivor batch ``build(spec)``, memoized.

        The first call in a :meth:`batch` scope also pre-filters every
        sweep the scope announced.
        """
        if self._announced:
            announced, self._announced = self._announced, []
            for tech, other in announced:
                self._pending.setdefault(self._group(tech, other), []).append(
                    self._survivor_batch(other, build)
                )
        return self._survivor_batch(spec, build)

    def _survivor_batch(self, spec: ArraySpec, build):
        key = prefilter_key(spec)
        batch = self._survivors.get(key)
        if batch is None:
            batch = self._survivors[key] = build(spec)
        return batch

    def subarray_terms(
        self, tech: Technology, spec: ArraySpec, keys, counts, build
    ):
        """Term rows of the distinct subarrays ``keys``
        (:func:`subarray_keys`).

        ``counts[i]`` candidates share subarray ``i``, and each is one
        lookup.  ``build(rows, cols)`` returns the term table of the
        subarrays not memoized yet; in a :meth:`batch` scope its first
        call for a group also covers every subarray of the group's
        announced survivors.  Returns a table with one row per
        subarray, in input order.
        """
        group = self._group(tech, spec)
        rows, cols = _split_subarray_keys(keys)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        seen = self._seen.setdefault(group, set())
        new = [pair for pair in pairs if pair not in seen]
        seen.update(new)
        self.subarray_misses += len(new)
        self.subarray_hits += int(counts.sum()) - len(new)
        if not pairs:
            return build(rows, cols)
        memo = self._terms.setdefault(group, {})
        wanted = pairs
        ahead = self._pending.pop(group, None)
        if ahead:
            # Build every subarray the group's announced sweeps will
            # look up along with these, in one call.
            # return_counts skips numpy 2's is_masked (numpy.ma) check.
            union, _ = _np.unique(_np.concatenate(
                [keys] + [batch.distinct_subarrays[0] for batch in ahead]
            ), return_counts=True)
            rows, cols = _split_subarray_keys(union)
            wanted = list(zip(rows.tolist(), cols.tolist()))
        todo = [i for i, pair in enumerate(wanted) if pair not in memo]
        if todo:
            for i, row in zip(todo, build(rows[todo], cols[todo])):
                memo[wanted[i]] = row
        return _np.array([memo[pair] for pair in pairs])


def build_organization(
    tech: Technology,
    spec: ArraySpec,
    org: OrgParams,
    geometry: OrgGeometry | None = None,
) -> ArrayMetrics:
    """Evaluate one partitioning tuple; raises InfeasibleOrganization.

    The scalar reference for one design point: the optimizer reads its
    designs from :mod:`repro.array.kernels` arrays, which reproduce
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


def _org_grid(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The (ndwl, ndbl, nspd, ndcm, ndsam) axes of the candidate grid.

    Wide-page main-memory parts (page_bits set) need far more row
    widening (nspd) and output muxing than caches, because a whole page
    is sensed but only a few dozen bits leave the chip per column access.
    """
    traits = spec.cell_tech.traits
    if nspd_values is None:
        nspd_values = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        if spec.page_bits is not None:
            # Row widening must reach page/output (a whole page on one
            # subarray row) and beyond: large chips also need wide rows
            # just to keep bitlines under the bitline sensing limit.
            widening = max(2, spec.page_bits // spec.output_bits) * 16
            nspd_values += tuple(
                float(2**k) for k in range(4, widening.bit_length())
            )
    if max_mux is None:
        max_mux = 64
        if spec.page_bits is not None:
            max_mux = max(64, spec.page_bits // spec.output_bits * 2)
    ndcms = _powers_up_to(max_mux) if traits.column_mux_allowed else (1,)
    return (
        _powers_up_to(max_ndwl),
        _powers_up_to(max_ndbl),
        tuple(nspd_values),
        ndcms,
        _powers_up_to(max_mux),
    )


def enumerate_orgs(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> list[OrgParams]:
    """All structurally plausible partitioning tuples for ``spec``.

    Infeasible tuples are cheap to reject later; this enumeration only
    enforces the power-of-two structure and mux applicability.  Sweeps
    use :func:`survivor_arrays`, which applies the structural pre-filter
    to the whole grid at once.
    """
    ndwls, ndbls, nspds, ndcms, ndsams = _org_grid(
        spec, max_ndwl, max_ndbl, nspd_values, max_mux
    )
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


def prefilter_key(spec: ArraySpec) -> tuple:
    """The spec fields the structural pre-filter reads.

    Specs with equal keys have the same candidate grid and the same
    survivors: the node, periphery, sleep transistors and repeater
    penalty play no part before build time.
    """
    return (
        spec.cell_tech,
        spec.capacity_bits,
        spec.output_bits,
        spec.assoc,
        spec.nbanks,
        spec.page_bits,
    )


def subarray_keys(rows, cols):
    """One int64 key per ``(rows[i], cols[i])`` subarray, ordered as
    the pairs are."""
    return rows * (MAX_COLS + 1) + cols


def _split_subarray_keys(keys):
    """The ``(rows, cols)`` arrays of :func:`subarray_keys` ``keys``."""
    return keys // (MAX_COLS + 1), keys % (MAX_COLS + 1)


def survivor_arrays(spec: ArraySpec, axes: tuple | None = None):
    """Raw survivor arrays of the vectorized structural pre-filter.

    Evaluates every feasibility expression of :func:`derive_geometry` --
    integral rows/columns, row/column ranges, the cell traits' bitline
    sensing limit, mux divisibility, active-subarray and way-select
    counts, page matching -- over the (ndwl, ndbl, nspd, ndcm, ndsam)
    grid ``axes`` (by default the spec's own grid) and returns the
    surviving candidates as ten aligned arrays ``(ndwl, ndbl, nspd,
    ndcm, ndsam, rows, cols, nact, sensed_bits, sense_amps_per_sub)``
    in enumeration order (the order ranking ties break by).

    Each condition is computed on the fewest axes it depends on: rows
    on (ndbl, nspd), columns on (ndwl, nspd), and the mux, active
    subarray and page checks on (ndwl, nspd, ndcm, ndsam).  The masks
    then broadcast to the full grid for one ``nonzero``.  The
    arithmetic is float64/int64, the same IEEE-754 operations
    :func:`derive_geometry` performs, so the integrality tests agree bit
    for bit.
    """
    if axes is None:
        axes = _org_grid(spec)
    ndwls, ndbls, nspds, ndcms, ndsams = (
        _np.asarray(axis, dtype=dtype)
        for axis, dtype in zip(axes, (_np.int64, _np.int64, _np.float64,
                                      _np.int64, _np.int64))
    )
    traits = spec.cell_tech.traits

    # (ndbl, nspd): rows per subarray.
    rows_f = spec.sets_per_bank / (ndbls[:, None] * nspds[None, :])
    rows_ok = rows_f == _np.floor(rows_f)
    # Non-integral entries are masked out; clamp them to an in-range
    # value so the integer conversion cannot overflow.
    rows = _np.where(rows_ok, rows_f, MIN_ROWS).astype(_np.int64)
    rows_ok &= (rows >= MIN_ROWS) & (rows <= MAX_ROWS)
    if traits.max_bitline_cells is not None:
        rows_ok &= rows <= traits.max_bitline_cells

    # (ndwl, nspd): columns per subarray.
    cols_f = spec.output_bits * spec.assoc * nspds[None, :] / ndwls[:, None]
    cols_ok = cols_f == _np.floor(cols_f)
    cols = _np.where(cols_ok, cols_f, MIN_COLS).astype(_np.int64)
    cols_ok &= (cols >= MIN_COLS) & (cols <= MAX_COLS)

    # (ndwl, nspd, ndcm, ndsam): muxing, active subarrays and the page.
    c4 = cols[:, :, None, None]
    mux = ndcms[:, None] * ndsams[None, :]
    ok = cols_ok[:, :, None, None] & (c4 % mux == 0)
    out_per_sub = c4 // mux
    ok &= out_per_sub > 0
    nact = -(-spec.output_bits // _np.maximum(out_per_sub, 1))
    ok &= nact <= ndwls[:, None, None, None]
    if spec.assoc > 1:
        ok &= mux >= spec.assoc
    sensed_per_sub = cols[:, :, None] // ndcms[None, None, :]
    sensed_bits = nact * sensed_per_sub[:, :, :, None]
    if spec.page_bits is not None:
        if not traits.supports_page_mode:
            ok &= False
        else:
            ok &= sensed_bits == spec.page_bits

    iw, ib, i_s, ic, im = _np.nonzero(
        rows_ok[None, :, :, None, None] & ok[:, None, :, :, :]
    )
    return (
        ndwls[iw],
        ndbls[ib],
        nspds[i_s],
        ndcms[ic],
        ndsams[im],
        rows[ib, i_s],
        cols[iw, i_s],
        nact[iw, i_s, ic, im],
        sensed_bits[iw, i_s, ic, im],
        sensed_per_sub[iw, i_s, ic],
    )


def _powers_up_to(limit: int) -> tuple[int, ...]:
    powers = []
    value = 1
    while value <= limit:
        powers.append(value)
        value *= 2
    return tuple(powers)
