"""Subarray kernel equivalence: term tables vs. scalar ``Subarray`` terms.

:func:`repro.array.kernels.subarray_terms` computes every circuit term
of many subarrays as arrays.  Its contract is bit identity with the
scalar :class:`~tests.reference_array.subarray.Subarray` oracle, so every column is
compared with exact ``==`` -- no tolerances -- for every registered
technology, every periphery device and five nodes (78 nm is
interpolated), over a (rows, cols) grid that reaches past the
charge-share sensing limit.

The grid also holds inputs on which numpy's SIMD ``log`` or ``power``
differs from ``math`` in the last bit (rows 193, 204, 218 and 253 of an
LP-DRAM subarray feed such a ``log`` into the sense time), so a kernel
that called numpy's transcendental functions would fail here; the last
tests check that it would.
"""

import itertools
import math

import numpy as np
import pytest

from repro.array import kernels
from repro.array.organization import MAX_ROWS
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from repro.tech.registry import SensingScheme, registered_names
from tests.reference_array import InfeasibleSubarray, Subarray

NODES = (32.0, 45.0, 65.0, 78.0, 90.0)
PERIPHERIES = tuple(technology(32).devices)
ROWS = (8, 9, 12, 16, 24, 32, 64, 100, 128, 193, 204, 218, 253, 256, 300,
        512, 777, 1024, 2048, 4096, 16384)
COLS = (16, 20, 64, 128, 300, 512, 1024, 4096, 65536)
GRID = list(itertools.product(ROWS, COLS))
GRID_ROWS = np.array([r for r, _ in GRID])
GRID_COLS = np.array([c for _, c in GRID])
BITLINE_C = kernels.SUBARRAY_TERMS.index("bitline_capacitance")


def scalar_terms(sub: Subarray) -> dict:
    """The kernel's columns, read off one scalar subarray."""
    try:
        sub.check_sense_feasible()
        feasible = True
    except InfeasibleSubarray:
        feasible = False
    terms = {
        "feasible": float(feasible),
        "width": sub.width,
        "height": sub.height,
        "area": sub.area,
        "cell_area": sub.cell_area,
        "bitline_capacitance": sub.bitline_capacitance,
        "bitline_resistance": sub.bitline_resistance,
        "wordline_r": sub.wordline_load.resistance,
        "wordline_c": sub.wordline_load.capacitance,
        "decoder_delay": sub.decoder.delay,
        "decoder_wordline_delay": sub.decoder.wordline_delay,
        "decoder_energy": sub.decoder.energy,
        "decoder_leakage": sub.decoder.leakage,
        "decoder_area": sub.decoder.area,
        "t_bitline": sub.t_bitline,
        "t_sense": sub.t_sense if feasible else math.nan,
        "t_writeback": sub.t_writeback,
        "t_precharge": sub.t_precharge,
        "e_sense_per_pair": sub.e_sense_per_pair,
        "leakage_fixed": sub.leakage_fixed,
        "amp_leakage": sub.sense_amp.leakage(),
    }
    assert tuple(terms) == kernels.SUBARRAY_TERMS
    return terms


def table(node, cell_tech, periphery):
    return kernels.subarray_terms(
        technology(node), CellTech(cell_tech), periphery, GRID_ROWS,
        GRID_COLS,
    )


@pytest.mark.parametrize("periphery", PERIPHERIES)
@pytest.mark.parametrize("cell_tech", registered_names())
@pytest.mark.parametrize("node", NODES)
def test_term_table_equals_scalar_subarray(node, cell_tech, periphery):
    tech = technology(node)
    cell = tech.cell(CellTech(cell_tech), periphery)
    got = table(node, cell_tech, periphery)
    assert got.shape == (len(GRID), len(kernels.SUBARRAY_TERMS))
    for i, (rows, cols) in enumerate(GRID):
        sub = Subarray(tech=tech, cell=cell, periph=tech.device(periphery),
                       rows=rows, cols=cols)
        want = scalar_terms(sub)
        for j, name in enumerate(kernels.SUBARRAY_TERMS):
            value = float(got[i, j])
            assert value == want[name] or (
                math.isnan(value) and math.isnan(want[name])
            ), (rows, cols, name, value, want[name])
        for written in (1, 64, 512):
            energy = kernels.write_bitline_energy(
                cell, got[i:i + 1, BITLINE_C], written)
            assert float(energy[0]) == sub.e_write_bitlines(written)
    feasible = got[:, 0]
    if cell.traits.sensing is SensingScheme.CHARGE_SHARE:
        # The grid reaches past the sensing limit on both sides.
        assert 0.0 in feasible and 1.0 in feasible
    else:
        assert (feasible == 1.0).all()


def test_address_bits_match_the_decoder_for_every_row_count():
    rows = np.arange(1, MAX_ROWS + 1)
    want = [math.ceil(math.log2(n)) for n in rows.tolist()]
    assert kernels._ceil_log2(rows).tolist() == want


def test_empty_input_gives_an_empty_table():
    empty = np.array([], dtype=np.int64)
    got = kernels.subarray_terms(technology(32), CellTech.SRAM,
                                 "hp-long-channel", empty, empty)
    assert got.shape == (0, len(kernels.SUBARRAY_TERMS))


@pytest.mark.parametrize(
    "fn,numpy_fn", [(math.log, np.log), (pow, np.power)],
    ids=["log", "power"],
)
def test_grid_catches_numpy_transcendentals(monkeypatch, fn, numpy_fn):
    """A kernel computing ``fn`` with numpy instead of per element
    through Python would produce a different table on this grid."""
    exact = {
        combo: table(*combo)
        for combo in itertools.product(
            NODES, ("sram", "lp-dram"), PERIPHERIES)
    }
    real = kernels._per_element

    def numpy_instead(f, *arrays):
        return numpy_fn(*arrays) if f is fn else real(f, *arrays)

    monkeypatch.setattr(kernels, "_per_element", numpy_instead)
    differs = sum(
        not np.array_equal(table(*combo), want, equal_nan=True)
        for combo, want in exact.items()
    )
    if not differs:
        pytest.skip(f"numpy's {numpy_fn.__name__} matches math on this "
                    "grid on this platform")
