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

This module holds the specs, the partitioning tuple and the metrics
record, the bank-level model constants, the :class:`EvalCache`, and the
structural pre-filter: :func:`survivor_arrays` derives, for the whole
candidate grid at once, subarray geometry and how many subarrays
activate per access, and drops every tuple that cannot realize the spec.
:mod:`repro.array.kernels` composes access time, random cycle time,
multisubbank interleave cycle time, per-access energies, leakage,
refresh power and area for the survivors.  The optimizer in
:mod:`repro.core.optimizer` sweeps this space exhaustively.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as _np

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


def _org_grid(spec: ArraySpec) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The (ndwl, ndbl, nspd, ndcm, ndsam) axes of the candidate grid.

    Wide-page main-memory parts (page_bits set) need far more row
    widening (nspd) and output muxing than caches, because a whole page
    is sensed but only a few dozen bits leave the chip per column access.
    """
    nspd_values = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    max_mux = 64
    if spec.page_bits is not None:
        # Row widening must reach page/output (a whole page on one
        # subarray row) and beyond: large chips also need wide rows
        # just to keep bitlines under the bitline sensing limit.
        widening = max(2, spec.page_bits // spec.output_bits) * 16
        nspd_values += tuple(
            float(2**k) for k in range(4, widening.bit_length())
        )
        max_mux = max(64, spec.page_bits // spec.output_bits * 2)
    muxes = _powers_up_to(max_mux)
    return (
        _powers_up_to(64),
        _powers_up_to(64),
        nspd_values,
        muxes if spec.cell_tech.traits.column_mux_allowed else (1,),
        muxes,
    )


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

    Evaluates every structural feasibility check -- integral
    rows/columns, row/column ranges, the cell traits' bitline
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
    arithmetic is float64/int64, the same IEEE-754 operations the
    reference oracle's one-tuple ``derive_geometry`` performs, so the
    integrality tests agree bit for bit.
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
