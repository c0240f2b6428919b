"""The array model: vectorized survivor-batch evaluation kernels.

This is the one production implementation of the paper's bank -> mat
-> subarray hierarchy, its row decoders and its H-trees.  Every
candidate organization a sweep keeps is evaluated as numpy array
arithmetic over *all* survivors at once:

* :func:`survivor_batch` wraps the raw arrays of
  :func:`~repro.array.organization.survivor_arrays` (the vectorized
  structural pre-filter) without materializing ``OrgParams`` /
  ``OrgGeometry`` objects;
* :func:`subarray_terms` computes the circuit terms of every distinct
  ``(rows, cols)`` subarray -- geometry, decoder, bitline, sense,
  writeback, precharge and leakage -- as one float64 table;
* :func:`evaluate_batch` gathers those terms to the survivors and
  computes H-tree delays (:func:`htree_route`), per-access energies,
  leakage, refresh power, and area (:func:`htree_wiring_area` for the
  tree metal) for the whole batch as float64 arrays;
* :func:`rank_batch` applies the staged area/access-time constraints
  and the normalized weighted ranking on the arrays;
* :meth:`EvaluatedBatch.design` reads one candidate's
  :class:`~repro.array.organization.ArrayMetrics` -- the composed
  metrics and the subarray and H-tree component terms -- from those
  arrays.

The model constants of the subarray, decoder and H-trees live here;
the bank-level ones live in :mod:`repro.array.organization`.

Determinism / bit-identity contract
-----------------------------------
The test suite keeps the model's object-at-a-time statement as a
reference oracle (``tests/reference_array``: a ``Subarray``, its row
decoder and ``HTree`` objects per candidate, composed by
``build_organization``), which imports its constants from here.  Every
kernel mirrors a scalar expression of that oracle, or of
:func:`~repro.circuits.drivers.build_chain`, *operation for operation,
in the same left-associative order*, so each array element is the
float64 the scalar code computes:

* ``+ - * /``, ``sqrt``, ``ceil``, ``round`` (``rint``: ties to even,
  as Python's ``round``), ``max`` and comparisons run in numpy.  IEEE-754
  makes each of them correctly rounded, elementwise, exactly as in
  Python; int-to-float conversions are exact at these magnitudes.
  Sums over driver-chain stages accumulate left to right, stage by
  stage, as ``build_chain`` does.
* ``math.log`` (the logical-effort stage count, the charge-share sense
  regeneration time) and fractional ``**`` (the per-stage effort) go
  through Python's ``math``/``pow`` element by element
  (:func:`_per_element`).  numpy's SIMD ``log`` and ``power`` are not
  correctly rounded: on numpy 2.4 / x86-64 ``np.log`` differs from
  ``math.log`` in the last bit on about 1e-4 of uniform random inputs
  and ``np.power`` on about 5 %, which would move solved numbers.
* Integer ``ceil(log2(n))`` (decoder address bits, H-tree levels) uses
  an exact ``frexp`` decomposition.

The decoder chains are masked loops over stage position, since each
subarray has its own logical-effort stage count.  Ranking picks the
same winner a per-candidate sweep picks, and every design read from the
batch is bit-identical to the one the oracle builds.
``tests/array/test_subarray_kernel.py`` checks the term table against
the oracle's ``Subarray`` for every registered technology, periphery
and node, and the reference sweep checks whole solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as _np

from repro.array.organization import (
    _BANK_AREA_OVERHEAD,
    _COLMUX_FO4,
    _CONTROL_ENERGY_FRACTION,
    _CONTROL_LEAKAGE_FRACTION,
    _CONTROL_WIRES,
    ArrayMetrics,
    ArraySpec,
    EvalCache,
    OrgGeometry,
    OrgParams,
    _org_grid,
    subarray_keys,
    survivor_arrays,
)
from repro.circuits import logical_effort as le
from repro.circuits.gates import (
    _GATE_OVERHEAD_F,
    CONTACTED_PITCH_F,
    min_width,
)
from repro.circuits.repeaters import RepeatedWireDesign, repeated_wire
from repro.circuits.senseamp import (
    MIN_CHARGE_SHARE_SIGNAL,
    SenseAmp,
    charge_share_signal,
)
from repro.tech.cells import CellParams, CellTech
from repro.tech.devices import TEMPERATURE_LEAKAGE_FACTOR
from repro.tech.nodes import Technology
from repro.tech.registry import SensingScheme

# --------------------------------------------------------------------- #
# Model constants of the subarray, its row decoder and the bank H-trees.

#: RC settling multiplier for full-swing charging (to ~90 %).
_T_SETTLE = 2.3

#: RC settling multiplier to ~1 % precision, for bitline equalization of
#: technologies whose precharge level is the sensing reference.
_T_SETTLE_PRECISE = 4.6

#: Cell-restore slowdown: as the storage node approaches full level the
#: access device's overdrive (VPP - Vth - Vcell) collapses, so the final
#: restore is several RC constants slower than the nominal channel
#: resistance suggests.
_RESTORE_SLOWDOWN = 3.0

#: Width of a bitline precharge/equalize device, in feature sizes.
_PRECHARGE_WIDTH_F = 8.0

#: Edge overhead of a subarray: wordline-driver strip width, in feature
#: sizes.  The sense-amp strip height comes from the cell traits (DRAM
#: strips are taller -- the amps are big relative to the tiny cell pitch).
_DRIVER_STRIP_F = 20.0

#: Address bits handled per predecode block.
_PREDEC_BITS = 3

#: Energy overhead of generating boosted VPP with an on-die charge pump;
#: pumps deliver charge at roughly 50-70 % efficiency.
CHARGE_PUMP_OVERHEAD = 1.6

#: Area factor of a boosted wordline driver: one level shifter per driver.
LEVEL_SHIFTER_AREA = 1.2

#: Delay of one H-tree branch buffer, in FO4s of the driving device.
BRANCH_BUFFER_FO4 = 2.0


@dataclass
class SurvivorBatch:
    """All prefilter survivors of one spec, as aligned arrays.

    Column-for-column the ``(OrgParams, OrgGeometry)`` pairs a
    one-candidate-at-a-time pre-filter accepts from the full candidate
    grid, in the same enumeration order, without the per-candidate
    objects.  The arrays
    are read-only: an :class:`~repro.array.organization.EvalCache`
    shares one batch across every spec with the same
    :func:`~repro.array.organization.prefilter_key`.
    """

    ndwl: "object"  #: int64 arrays, one entry per survivor
    ndbl: "object"
    nspd: "object"  #: float64
    ndcm: "object"
    ndsam: "object"
    rows: "object"
    cols: "object"
    nact: "object"
    sensed_bits: "object"
    sense_amps_per_sub: "object"
    enumerated: int  #: candidate tuples in the grid the batch came from

    @property
    def size(self) -> int:
        return int(self.ndwl.shape[0])

    def org_at(self, i: int) -> tuple[OrgParams, OrgGeometry]:
        """Candidate ``i`` as ``(OrgParams, OrgGeometry)`` objects."""
        return (
            OrgParams(
                int(self.ndwl[i]),
                int(self.ndbl[i]),
                float(self.nspd[i]),
                int(self.ndcm[i]),
                int(self.ndsam[i]),
            ),
            OrgGeometry(
                rows=int(self.rows[i]),
                cols=int(self.cols[i]),
                nact=int(self.nact[i]),
                sensed_bits=int(self.sensed_bits[i]),
                sense_amps_per_sub=int(self.sense_amps_per_sub[i]),
            ),
        )

    def candidates(self) -> list[tuple[OrgParams, OrgGeometry]]:
        """Every survivor as an ``(OrgParams, OrgGeometry)`` pair."""
        return [self.org_at(i) for i in range(self.size)]

    @cached_property
    def distinct_subarrays(self):
        """``(keys, inverse, counts)`` of the batch's distinct
        ``(rows, cols)`` subarrays: their
        :func:`~repro.array.organization.subarray_keys` in ascending
        order, each candidate's index into them, and how many
        candidates share each."""
        return _np.unique(
            subarray_keys(self.rows, self.cols),
            return_inverse=True,
            return_counts=True,
        )

    def take(self, idx) -> "SurvivorBatch":
        """A new batch holding the candidates at ``idx``, in order."""
        return SurvivorBatch(
            ndwl=self.ndwl[idx],
            ndbl=self.ndbl[idx],
            nspd=self.nspd[idx],
            ndcm=self.ndcm[idx],
            ndsam=self.ndsam[idx],
            rows=self.rows[idx],
            cols=self.cols[idx],
            nact=self.nact[idx],
            sensed_bits=self.sensed_bits[idx],
            sense_amps_per_sub=self.sense_amps_per_sub[idx],
            enumerated=self.enumerated,
        )


def survivor_batch(spec: ArraySpec) -> SurvivorBatch:
    """The spec's prefilter survivors as arrays."""
    axes = _org_grid(spec)
    arrays = survivor_arrays(spec, axes)
    for array in arrays:
        array.flags.writeable = False
    return SurvivorBatch(*arrays, enumerated=math.prod(map(len, axes)))


#: :class:`~repro.array.organization.ArrayMetrics` fields each read from
#: the same-named :class:`EvaluatedBatch` array.
_BATCH_FIELDS = (
    "t_access",
    "t_random_cycle",
    "t_interleave",
    "e_activate",
    "e_read_column",
    "e_write_column",
    "e_precharge",
    "p_leakage",
    "p_refresh",
    "area",
    "bank_width",
    "bank_height",
    "area_efficiency",
)

#: ``ArrayMetrics`` component fields and the subarray term column
#: (:data:`SUBARRAY_TERMS`) each is read from.
_TERM_FIELDS = {
    "t_decode": "decoder_delay",
    "t_wordline": "decoder_wordline_delay",
    "t_bitline": "t_bitline",
    "t_sense": "t_sense",
    "t_writeback": "t_writeback",
    "t_precharge": "t_precharge",
}


@dataclass
class EvaluatedBatch:
    """Per-candidate metric arrays for the *buildable* survivors.

    Candidates whose subarray fails the electrical sense-signal check
    (the only build-time feasibility gate past the structural
    pre-filter) are dropped; ``batch`` is compacted accordingly and
    ``n_infeasible`` counts the drops.  Every metric array mirrors the
    same-named :class:`~repro.array.organization.ArrayMetrics` field
    bit for bit; ``t_htree`` is the delay of both H-trees (they share
    one wire design and path).  The subarray component terms stay in
    the distinct-subarray table ``subarray_terms`` (columns
    :data:`SUBARRAY_TERMS`), which candidate ``i`` reads at row
    ``subarray_index[i]``.  :meth:`design` composes one candidate's
    ``ArrayMetrics`` from all of them.
    """

    spec: ArraySpec
    batch: SurvivorBatch
    n_infeasible: int
    subarray_terms: "object"
    subarray_index: "object"
    t_htree: "object"
    t_access: "object"
    t_random_cycle: "object"
    t_interleave: "object"
    e_activate: "object"
    e_read_column: "object"
    e_write_column: "object"
    e_precharge: "object"
    e_read_access: "object"
    p_leakage: "object"
    p_refresh: "object"
    area: "object"
    bank_width: "object"
    bank_height: "object"
    area_efficiency: "object"

    @property
    def size(self) -> int:
        return int(self.t_access.shape[0])

    def design(self, i: int) -> ArrayMetrics:
        """Candidate ``i`` as an :class:`ArrayMetrics`: the batch
        arrays and its subarray term row, field for field."""
        org, geometry = self.batch.org_at(i)
        terms = self.subarray_terms[self.subarray_index[i]]
        t_htree = float(self.t_htree[i])
        return ArrayMetrics(
            spec=self.spec,
            org=org,
            rows=geometry.rows,
            cols=geometry.cols,
            nact=geometry.nact,
            sensed_bits=geometry.sensed_bits,
            t_htree_in=t_htree,
            t_htree_out=t_htree,
            **{name: float(getattr(self, name)[i]) for name in _BATCH_FIELDS},
            **{name: float(terms[_COL[column]])
               for name, column in _TERM_FIELDS.items()},
        )


def _ceil_log2(n):
    """Exact ``ceil(log2(n))`` for a positive int64 array.

    ``frexp`` decomposes n = m * 2**e with m in [0.5, 1); for integral
    n the ceil of log2 is e, minus one exactly when n is a power of two
    (m == 0.5).  Integer-exact for every value in range, unlike a
    floating ``log2`` whose ULP rounding could cross an integer.
    """
    mantissa, exponent = _np.frexp(n.astype(_np.float64))
    return exponent - (mantissa == 0.5)


def _htree_levels_array(num_mats):
    """Exact ``max(1, ceil(log2(max(n, 2))))`` for an int64 array."""
    return _np.maximum(1, _ceil_log2(num_mats))


# --------------------------------------------------------------------- #
# Subarray kernel

#: Columns of a subarray term table (:func:`subarray_terms`), one row per
#: distinct ``(rows, cols)`` subarray.  ``feasible`` is 1.0 where the
#: subarray passes the charge-share sense-signal check and 0.0 where it
#: fails (too many cells per bitline for the storage capacitor);
#: ``t_sense`` is NaN there.  Every other column equals the same-named
#: term of the reference oracle's ``Subarray`` (``decoder_*`` are the
#: fields of its decoder, ``wordline_r``/``wordline_c`` those of its
#: wordline load, ``amp_leakage`` is one sense amp's leakage).
SUBARRAY_TERMS = (
    "feasible",
    "width",
    "height",
    "area",
    "cell_area",
    "bitline_capacitance",
    "bitline_resistance",
    "wordline_r",
    "wordline_c",
    "decoder_delay",
    "decoder_wordline_delay",
    "decoder_energy",
    "decoder_leakage",
    "decoder_area",
    "t_bitline",
    "t_sense",
    "t_writeback",
    "t_precharge",
    "e_sense_per_pair",
    "leakage_fixed",
    "amp_leakage",
)
_COL = {name: i for i, name in enumerate(SUBARRAY_TERMS)}


def _per_element(fn, *arrays):
    """``fn`` applied element by element through Python floats.

    For ``math.log`` and fractional ``**``: numpy's SIMD ``log`` and
    ``power`` can differ in the last bit from the C library functions
    the scalar model calls.
    """
    lists = [a.tolist() for a in arrays]
    return _np.fromiter(map(fn, *lists), _np.float64, len(lists[0]))


def _chains(periph, feature_size, c_load, wire_r, wire_c, fan_in, pitch,
            swing):
    """:func:`~repro.circuits.drivers.build_chain` over arrays of loads.

    Element ``j`` is the chain driving ``c_load[j]`` (or a scalar) through
    the wire ``(wire_r[j], wire_c[j])`` whose first gate is a NAND of
    ``fan_in[j]`` (or a scalar) inputs -- an inverter when 1; ``pitch``
    (None or a scalar) folds every stage, ``swing`` is the energy swing.
    Each element has its own logical-effort stage count ``n``, so the
    per-stage arrays have one row per stage position, masked to the
    elements that have that stage.  Returns ``(delay, energy, leakage,
    area, c_in)``.
    """
    m = wire_c.shape[0]
    ntp = periph.n_to_p_ratio
    w_min = min_width(periph, feature_size)
    c_unit = w_min * periph.c_gate * (1.0 + ntp)

    # logical_effort.size_path with one fixed gate, le_nand(fan_in)
    # (exactly 1.0 for an inverter), and unit branching.
    c_total = c_load + wire_c
    g_first = (fan_in + 2.0) / 3.0
    f_path = _np.maximum(g_first * 1.0 * (c_total / c_unit), 1.0)
    log_f = _per_element(math.log, f_path)
    n = _np.maximum(1, _np.rint(log_f / math.log(le.STAGE_EFFORT)))
    n = n.astype(_np.int64)
    effort = _per_element(pow, f_path, 1.0 / n)
    depth = int(n.max()) if m else 1
    stage = _np.arange(depth)[:, None]
    has = stage < n

    # Input caps, walking back from the load: q[j] is the load after j
    # inverter stages (c_out / effort per stage); stage i >= 1 takes
    # q[n - i], the first stage (g_first * q[n - 1]) / effort.
    q = _np.empty((depth, m))
    q[0] = c_total
    for j in range(1, depth):
        q[j] = q[j - 1] / effort
    caps = _np.take_along_axis(q, _np.clip(n - stage, 0, depth - 1), 0)
    caps[0] = g_first * q[n - 1, _np.arange(m)] / effort

    # Realized gates: a NAND first stage (stack and inputs = fan_in),
    # inverters after it.
    k = _np.ones((depth, m), dtype=_np.int64)
    k[0] = fan_in
    w = _np.maximum(caps / (periph.c_gate * (k + ntp)), w_min)
    w_n = w * k
    w_p = w * ntp
    g_c_in = (w_n + w_p) * periph.c_gate
    g_c_out = (w_n * k + w_p) * periph.c_drain
    r_drive = periph.r_eff * k / w_n

    # Horowitz stage delays with the ramp carried stage to stage; the
    # last stage drives the wire and load, absent stages add 0.0.
    tau = _np.zeros((depth, m))
    tau[:-1] = r_drive[:-1] * (g_c_out[:-1] + g_c_in[1:])
    tau_last = r_drive * (g_c_out + wire_c + c_load)
    tau_last = tau_last + wire_r * (wire_c / 2.0 + c_load)
    tau = _np.where(stage == n - 1, tau_last, _np.where(has, tau, 0.0))
    safe_tau = _np.where(tau > 0.0, tau, 1.0)
    log_sq = math.log(0.5) ** 2
    delay = _np.zeros(m)
    ramp = _np.zeros(m)
    for i in range(depth):
        a = ramp / safe_tau[i]
        d = tau[i] * _np.sqrt(log_sq + 2.0 * a * 0.5 * (1.0 - 0.5))
        delay = delay + d
        ramp = 2.0 * d

    # Switched capacitance, leakage and area, summed stage by stage.
    leak_coeff = periph.i_off * TEMPERATURE_LEAKAGE_FACTOR + periph.i_gate
    w_leak = (w_n * k / k + w_p * k / ntp) / 2.0
    if pitch is None:
        area = (
            (w_n + w_p + _GATE_OVERHEAD_F * feature_size)
            * (k * CONTACTED_PITCH_F * feature_size)
        )
    else:
        usable = max(pitch - 2.0 * feature_size, feature_size)
        fingers = _np.maximum(1, _np.ceil((w_n + w_p) * k / usable))
        area = fingers * CONTACTED_PITCH_F * feature_size * pitch
    per_stage = _np.where(has, _np.stack([
        g_c_in + g_c_out,
        leak_coeff * w_leak * periph.vdd,
        area,
    ]), 0.0)
    sums = _np.zeros((3, m))
    for i in range(depth):
        sums = sums + per_stage[:, i]
    c_switched, leakage, area = sums
    c_switched = c_switched + wire_c
    c_switched = c_switched + c_load
    energy = c_switched * swing * swing
    return delay, energy, leakage, area, g_c_in[0]


def subarray_terms(
    tech: Technology,
    cell_tech: CellTech,
    periph_device_type: str,
    rows,
    cols,
):
    """Every circuit term of the subarrays ``(rows[i], cols[i])``.

    Returns a float64 table with one row per subarray and the columns
    :data:`SUBARRAY_TERMS`: what the reference oracle's ``Subarray``
    derives one object at a time -- geometry, bitline and wordline
    electricals, the row decoder with its wordline and predecode driver
    chains, bitline, sense, writeback and precharge timing, sense and
    leakage terms -- for a whole array of subarrays of one cell
    technology, periphery and node.  ``rows`` are at least 2, as every survivor's are.
    Bit-identical to the scalar terms; see the module docstring.
    """
    rows = _np.asarray(rows, dtype=_np.int64)
    cols = _np.asarray(cols, dtype=_np.int64)
    cell = tech.cell(cell_tech, periph_device_type)
    periph = tech.device(periph_device_type)
    traits = cell.tech.traits
    f = tech.feature_size
    charge_share = traits.sensing is SensingScheme.CHARGE_SHARE
    table = _np.empty((rows.shape[0], len(SUBARRAY_TERMS)))

    def put(name, values):
        table[:, _COL[name]] = values

    # --- geometry ----------------------------------------------------
    cell_array_width = cols * cell.width
    cell_array_height = rows * cell.height
    width = cell_array_width + _DRIVER_STRIP_F * f
    height = cell_array_height + traits.sense_strip_height_f * f

    # --- wordline and bitline electricals ----------------------------
    local = tech.local
    c_gate = traits.wordline_gates_per_cell * cell.access_width * periph.c_gate
    wl_c = cols * (c_gate + local.c_per_m * cell.width)
    wl_r = cols * local.r_per_m * cell.width
    bl_wire = tech.bitline_wire(cell.tech)
    junction = cell.access_c_drain * cell.access_width + cell.access_c_junction
    if traits.folded_bitline:
        junction = 0.5 * junction
    bl_c = rows * (junction + bl_wire.c_per_m * cell.height)
    bl_r = rows * bl_wire.r_per_m * cell.height

    # --- row decoder ---------------------------------------------------
    # Address bits group into predecode blocks of _PREDEC_BITS (NAND ->
    # one-hot lines) running down the subarray edge to per-row NAND
    # gates; each feeds a wordline driver chain folded to the cell
    # pitch.  Boosted (VPP) wordlines pay the charge pump and a level
    # shifter per driver.
    addr_bits = _np.maximum(1, _ceil_log2(rows))
    num_blocks = _np.maximum(1, -(-addr_bits // _PREDEC_BITS))
    lines_per_block = 2 ** _np.minimum(_PREDEC_BITS, addr_bits)
    wl_voltage = cell.wordline_voltage
    wl_delay, wl_energy, wl_leak, wl_area, wl_c_in = _chains(
        periph, f, 0.0, wl_r, wl_c, num_blocks, cell.height, wl_voltage
    )
    if wl_voltage > periph.vdd:
        wl_energy = wl_energy * CHARGE_PUMP_OVERHEAD
        wl_area = wl_area * LEVEL_SHIFTER_AREA
    semi = tech.semi_global
    predec_load = wl_c_in * (rows / lines_per_block)
    pd_delay, pd_energy, pd_leak, pd_area, _ = _chains(
        periph,
        f,
        predec_load,
        semi.r_per_m * cell_array_height,
        semi.c_per_m * cell_array_height,
        _PREDEC_BITS,
        None,
        periph.vdd,
    )
    lines = num_blocks * lines_per_block
    dec_energy = 2.0 * num_blocks * pd_energy + wl_energy
    dec_leak = rows * wl_leak + lines * pd_leak
    dec_area = rows * wl_area + lines * pd_area

    # --- sensing -------------------------------------------------------
    amp = SenseAmp(periph, f)
    if charge_share:
        cs = cell.storage_cap
        signal = charge_share_signal(cs, bl_c, cell.vdd_cell)
        feasible = ~(signal < MIN_CHARGE_SHARE_SIGNAL)
        r_access = cell.access_r_channel / cell.access_width
        c_share = cs * bl_c / (cs + bl_c)
        t_bitline = _T_SETTLE * (r_access + bl_r / 2.0) * c_share
        tau = amp.r_latch * (bl_c + amp.c_internal)
        t_sense = tau * _per_element(math.log, cell.vdd_cell / signal)
        t_sense = _np.where(feasible, t_sense, _np.nan)
        e_sense = amp.restore_energy(bl_c, cell.vdd_cell)
    else:
        feasible = True
        swing = 0.10 * periph.vdd
        discharge = bl_c * swing / cell.read_current
        t_bitline = discharge + 0.38 * bl_r * bl_c
        t_sense = amp.latch_delay()
        e_sense = amp.latch_energy(bl_c)
    if traits.destructive_read:
        r_access = cell.access_r_channel / cell.access_width
        t_writeback = (
            _T_SETTLE * _RESTORE_SLOWDOWN * r_access * cell.storage_cap
        )
    else:
        t_writeback = traits.write_pulse_time
    r_pre = periph.r_eff / (_PRECHARGE_WIDTH_F * f)
    swing_factor = traits.precharge_swing_fraction
    settle = _T_SETTLE_PRECISE if traits.precise_precharge else _T_SETTLE
    t_precharge = settle * r_pre * bl_c * swing_factor + 0.38 * (
        bl_r * bl_c * swing_factor
    )

    # --- leakage -------------------------------------------------------
    cell_leak = (
        rows
        * cols
        * cell.access_i_off
        * TEMPERATURE_LEAKAGE_FACTOR
        * cell.access_width
        * cell.vdd_cell
    )
    cell_leak = cell_leak * traits.cell_leak_paths

    put("feasible", feasible)
    put("width", width)
    put("height", height)
    put("area", width * height + dec_area)
    put("cell_area", rows * cols * cell.area)
    put("bitline_capacitance", bl_c)
    put("bitline_resistance", bl_r)
    put("wordline_r", wl_r)
    put("wordline_c", wl_c)
    put("decoder_delay", pd_delay + wl_delay)
    put("decoder_wordline_delay", wl_delay)
    put("decoder_energy", dec_energy)
    put("decoder_leakage", dec_leak)
    put("decoder_area", dec_area)
    put("t_bitline", t_bitline)
    put("t_sense", t_sense)
    put("t_writeback", t_writeback)
    put("t_precharge", t_precharge)
    put("e_sense_per_pair", e_sense)
    put("leakage_fixed", cell_leak + dec_leak)
    put("amp_leakage", amp.leakage())
    return table


def write_bitline_energy(cell: CellParams, bitline_c, num_written: int):
    """Energy of driving ``num_written`` bitline pairs on a write (J),
    over an array of bitline capacitances.

    The write-swing trait scales the full-rail energy: 1.0 when every
    written pair swings (SRAM), 0.5 when writes flip already-sensed
    bitlines to the new data (DRAM restore-then-flip).
    """
    vdd = cell.vdd_cell
    return (
        num_written
        * bitline_c
        * vdd
        * vdd
        * cell.tech.traits.write_swing_fraction
    )


def htree_route(tech: Technology, spec: ArraySpec, bank_width, bank_height):
    """The repeated-wire design both H-trees of a bank run on, and
    their edge-to-farthest-mat path, half the bank perimeter (m).

    The wire plane is a trait: metal-poor commodity DRAM processes route
    banks on the intermediate plane.  ``bank_width`` and ``bank_height``
    are floats or arrays of them.
    """
    design = repeated_wire(
        tech.device(spec.periph_device_type),
        tech.htree_wire(spec.cell_tech),
        tech.feature_size,
        spec.max_repeater_delay_penalty,
    )
    return design, (bank_width + bank_height) / 2.0


def htree_wires(spec: ArraySpec) -> tuple[int, int]:
    """Signals ``(in, out)`` on a bank's address-in tree (address plus
    control) and data-out tree."""
    return spec.address_bits + _CONTROL_WIRES, spec.output_bits


def htree_wiring_area(design: RepeatedWireDesign, spec: ArraySpec, path):
    """Metal footprints ``(in, out)`` of a bank's address-in and data-out
    H-trees (m^2), over the :func:`htree_route` ``design`` and ``path``.

    Total wire in a tree is about twice the critical path per wire.
    """
    in_wires, out_wires = htree_wires(spec)
    return (
        in_wires * design.wire.pitch * 2.0 * path,
        out_wires * design.wire.pitch * 2.0 * path,
    )


def evaluate_batch(
    tech: Technology,
    spec: ArraySpec,
    batch: SurvivorBatch,
    cache: EvalCache,
) -> EvaluatedBatch:
    """Compose metrics for every survivor as one array computation.

    See the module docstring for the bit-identity argument.  ``cache``
    memoizes the subarray term rows and receives exactly the subarray
    hit/miss counts a per-candidate sweep would record (one lookup per
    candidate).  H-tree designs are closed-form array arithmetic over
    the one memoized
    :class:`~repro.circuits.repeaters.RepeatedWireDesign`.
    """
    periph = tech.device(spec.periph_device_type)
    cell = tech.cell(spec.cell_tech, spec.periph_device_type)
    traits = spec.cell_tech.traits

    # --- per-unique subarray table -----------------------------------
    # Many candidates share one (rows, cols) subarray: compute the terms
    # of each distinct one once (memoized in the EvalCache, which counts
    # one lookup per candidate) and gather them to the candidates.
    keys, inverse, counts = batch.distinct_subarrays
    table = cache.subarray_terms(
        tech,
        spec,
        keys,
        counts,
        lambda rows, cols: subarray_terms(
            tech, spec.cell_tech, spec.periph_device_type, rows, cols
        ),
    )

    buildable = table[inverse, _COL["feasible"]] != 0.0
    n_infeasible = int(batch.size - _np.count_nonzero(buildable))
    if n_infeasible:
        keep = _np.nonzero(buildable)[0]
        batch = batch.take(keep)
        inverse = inverse[keep]
    terms = table[inverse]

    def g(name):
        return terms[:, _COL[name]]

    w, b = batch.ndwl, batch.ndbl
    nact, sensed = batch.nact, batch.sensed_bits
    n_sa = batch.sense_amps_per_sub

    # --- geometry + H-trees ------------------------------------------
    # The H-trees fan out to mats, 2x2 tiles of subarrays: max(1,
    # ceil(ndwl/2) * ceil(ndbl/2)); the operands are positive ints, so
    # the int ceil is exact.
    num_mats = _np.maximum(1, ((w + 1) // 2) * ((b + 1) // 2))
    bank_width = w * g("width")
    bank_height = b * g("height")

    design, path = htree_route(tech, spec, bank_width, bank_height)
    levels = _htree_levels_array(num_mats)
    buffer_delay = levels * BRANCH_BUFFER_FO4 * periph.fo4
    t_htree = design.delay_per_m * path + buffer_delay
    occupancy = t_htree / _np.maximum(levels, 1)
    e_per_wire = design.energy_per_m * path
    in_wires, out_wires = htree_wires(spec)
    e_htree_in = in_wires * e_per_wire
    e_htree_out = out_wires * e_per_wire
    leak_htree_in = in_wires * (design.leakage_per_m * (2.0 * path))
    leak_htree_out = out_wires * (design.leakage_per_m * (2.0 * path))
    wiring_in, wiring_out = htree_wiring_area(design, spec, path)

    # --- timing -------------------------------------------------------
    t_colmux = _COLMUX_FO4 * periph.fo4
    t_access = (
        t_htree
        + g("decoder_delay")
        + g("t_bitline")
        + g("t_sense")
        + t_colmux
        + t_htree
    )
    t_random_cycle = (
        g("decoder_wordline_delay")
        + g("t_bitline")
        + g("t_sense")
        + g("t_writeback")
        + g("t_precharge")
    )
    # max(in-tree occupancy, out-tree occupancy, colmux); both trees
    # share one design and path, so their occupancies are one array.
    t_interleave = _np.maximum(occupancy, t_colmux)

    # --- energies -----------------------------------------------------
    e_wordlines = nact * g("decoder_energy")
    e_sense = sensed * g("e_sense_per_pair")
    e_activate = e_wordlines + e_sense + e_htree_in
    e_colmux = (
        spec.output_bits
        * periph.c_gate
        * 8.0
        * tech.feature_size
        * periph.vdd**2
    )
    e_read_column = e_colmux + e_htree_out
    e_write_column = e_colmux + e_htree_out + write_bitline_energy(
        cell, g("bitline_capacitance"), spec.output_bits
    )
    swing_fraction = traits.precharge_swing_fraction
    e_precharge = (
        sensed
        * g("bitline_capacitance")
        * cell.vdd_cell**2
        * swing_fraction
        * 0.5
    )
    scale = 1.0 + _CONTROL_ENERGY_FRACTION
    e_activate = e_activate * scale
    e_read_column = e_read_column * scale
    e_write_column = e_write_column * scale
    e_precharge = e_precharge * scale

    # --- leakage ------------------------------------------------------
    num_subs = w * b
    leak_per_sub = g("leakage_fixed") + n_sa * g("amp_leakage")
    if spec.sleep_transistors:
        active_fraction = nact / num_subs
        leak_array = leak_per_sub * num_subs * (
            active_fraction + 0.5 * (1.0 - active_fraction)
        )
    else:
        leak_array = leak_per_sub * num_subs
    leak_bank = (
        leak_array + leak_htree_in + leak_htree_out
    ) * (1.0 + _CONTROL_LEAKAGE_FRACTION)
    p_leakage = leak_bank * spec.nbanks

    # --- refresh ------------------------------------------------------
    if traits.needs_refresh:
        refresh_ops_per_bank = batch.rows * b * w / nact
        e_refresh_op = (e_activate + e_precharge)
        p_refresh = (
            spec.nbanks
            * refresh_ops_per_bank
            * e_refresh_op
            / cell.retention_time
        )
    else:
        p_refresh = _np.zeros(batch.size, dtype=_np.float64)

    # --- area ---------------------------------------------------------
    subarrays_area = num_subs * g("area") * 1.02
    wiring = wiring_in + wiring_out
    bank_area = (subarrays_area + 0.5 * wiring) * (1 + _BANK_AREA_OVERHEAD)
    total_area = bank_area * spec.nbanks
    cell_area = num_subs * g("cell_area") * spec.nbanks

    e_read_access = e_activate + e_read_column + e_precharge
    return EvaluatedBatch(
        spec=spec,
        batch=batch,
        n_infeasible=n_infeasible,
        subarray_terms=table,
        subarray_index=inverse,
        t_htree=t_htree,
        t_access=t_access,
        t_random_cycle=t_random_cycle,
        t_interleave=t_interleave,
        e_activate=e_activate,
        e_read_column=e_read_column,
        e_write_column=e_write_column,
        e_precharge=e_precharge,
        e_read_access=e_read_access,
        p_leakage=p_leakage,
        p_refresh=p_refresh,
        area=total_area,
        bank_width=bank_width,
        bank_height=bank_height,
        area_efficiency=cell_area / total_area,
    )


def rank_batch(ev: EvaluatedBatch, target) -> "object":
    """Staged constraints + normalized weighted ranking on the arrays.

    Returns the indices of the constraint-satisfying candidates into
    ``ev``'s arrays, best first -- exactly the order
    ``rank(filter_constraints(designs, target), target)`` produces,
    including stable tie-breaking by enumeration order.
    """
    area, t_access = ev.area, ev.t_access
    best_area = float(area.min())
    within_area = area <= best_area * (1.0 + target.max_area_fraction)
    best_time = float(t_access[within_area].min())
    mask = within_area & (
        t_access <= best_time * (1.0 + target.max_acctime_fraction)
    )
    idx = _np.nonzero(mask)[0]

    def floor(values) -> float:
        smallest = float(values.min())
        return smallest if smallest > 0.0 else 1e-30

    e_read = ev.e_read_access[idx]
    leak_total = ev.p_leakage[idx] + ev.p_refresh[idx]
    cycle = ev.t_random_cycle[idx]
    interleave = ev.t_interleave[idx]
    min_dyn = floor(e_read)
    min_leak = floor(leak_total)
    min_cycle = floor(cycle)
    min_interleave = floor(interleave)
    score = (
        target.weight_dynamic * e_read / min_dyn
        + target.weight_leakage * leak_total / min_leak
        + target.weight_cycle * cycle / min_cycle
        + target.weight_interleave * interleave / min_interleave
    )
    return idx[_np.argsort(score, kind="stable")]
