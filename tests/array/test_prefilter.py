"""The factored structural pre-filter against its full-grid oracle.

``survivor_arrays`` computes each feasibility condition on the fewest
grid axes it depends on and broadcasts the masks for one ``nonzero``;
``tests/reference_sweep.py`` evaluates every condition on the flattened
full grid.  They must agree array for array: values, dtypes and
enumeration order.
"""

import itertools
import random

import numpy as np
import pytest

from repro.array import kernels
from repro.array.mainmem import MainMemorySpec
from repro.array.organization import (
    ArraySpec,
    EvalCache,
    prefilter_key,
    survivor_arrays,
)
from repro.cachedb import GridSpec
from repro.cachedb.schema import grid_spec_for
from repro.core.cacti import data_array_spec, tag_array_spec
from repro.core.config import MemorySpec
from repro.tech.cells import CellTech
from tests.reference_array import enumerate_orgs
from tests.reference_sweep import (
    reference_candidates,
    reference_survivor_arrays,
)


def arrays_of(memory_specs) -> list[ArraySpec]:
    specs = []
    for spec in memory_specs:
        specs.append(data_array_spec(spec))
        if spec.is_cache:
            specs.append(tag_array_spec(spec))
    return specs


def distinct(specs) -> list[ArraySpec]:
    """One spec per pre-filter key: the pre-filter reads nothing else."""
    return list({prefilter_key(spec): spec for spec in specs}.values())


#: The solve-sweep benchmark space.  A seed only chooses which node
#: goes with which associativity, and the pre-filter does not read the
#: node, so every (technology, capacity, associativity) at one node
#: covers the specs of every seed.
SOLVE_SWEEP = distinct(arrays_of(
    MemorySpec(capacity_bytes=capacity, associativity=assoc or None,
               cell_tech=tech)
    for tech in ("sram", "lp-dram", "comm-dram", "stt-ram")
    for capacity in ((32 << 10) << k for k in range(13))
    for assoc in (0, 4, 8, 16)
))

#: The cached-solve benchmark's cachedb grid.
CACHED_SOLVE_GRID = distinct(arrays_of(
    grid_spec_for(*coords)
    for _key, coords in GridSpec(
        capacities_bytes=tuple((64 << 10) << k for k in range(9)),
        associativities=(8,),
        nodes_nm=(32.0, 45.0, 65.0),
        technologies=("sram", "lp-dram"),
    ).points()
))

#: Page-mode main-memory chips: wide nspd and mux axes, page matching.
MAIN_MEMORY = [
    MainMemorySpec(capacity_bits=capacity << 20, nbanks=banks,
                   data_pins=pins, page_bits=page).array_spec()
    for capacity, banks, pins, page in (
        (1024, 8, 8, 8192),
        (512, 8, 16, 16384),
        (2048, 8, 4, 4096),
        (256, 4, 8, 8192),
    )
]

#: Charge-share DRAM (the ``max_bitline_cells`` limit), STT-RAM, and
#: shapes off the power-of-two grid: several banks, odd associativity,
#: ECC-widened outputs.
EDGE_CASES = [
    ArraySpec(capacity_bits=capacity, output_bits=out, assoc=assoc,
              nbanks=banks, cell_tech=tech)
    for tech in (CellTech.COMM_DRAM, CellTech.STT_RAM)
    for capacity, out, assoc, banks in (
        (64 << 20, 64, 1, 8),
        (9 << 23, 576, 8, 4),
        (3 << 20, 512, 6, 1),
        (3 << 21, 512, 12, 2),
        (9 << 16, 72, 1, 1),
    )
]

SPECS = SOLVE_SWEEP + CACHED_SOLVE_GRID + MAIN_MEMORY + EDGE_CASES


def assert_same_arrays(got, want, spec):
    assert len(got) == len(want) == 10
    for column, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype, (spec, column)
        assert np.array_equal(a, b), (spec, column)


def test_spec_sets_exercise_every_check():
    assert len(SOLVE_SWEEP) > 300
    assert any(s.cell_tech.traits.max_bitline_cells for s in SPECS)
    assert any(s.page_bits is not None for s in SPECS)
    assert any(s.nbanks > 1 for s in SPECS)
    assert any(s.assoc & (s.assoc - 1) for s in SPECS)
    # Some specs keep no survivor at all.
    assert any(survivor_arrays(s)[0].size == 0 for s in SPECS)


def test_factored_prefilter_matches_full_grid_oracle():
    for spec in SPECS:
        assert_same_arrays(
            survivor_arrays(spec), reference_survivor_arrays(spec), spec
        )


def test_sample_matches_per_candidate_prefilter():
    rng = random.Random(17)
    for spec in rng.sample(SPECS, 12) + MAIN_MEMORY[:1] + EDGE_CASES[:1]:
        batch = kernels.survivor_batch(spec)
        assert batch.candidates() == reference_candidates(spec)
        assert batch.enumerated == len(enumerate_orgs(spec))


@pytest.mark.parametrize("spec", CACHED_SOLVE_GRID[:3] + MAIN_MEMORY[:1])
def test_survivor_batch_is_read_only(spec):
    batch = kernels.survivor_batch(spec)
    with pytest.raises(ValueError):
        batch.rows[0] = 0


def test_survivor_memo_is_keyed_on_what_the_prefilter_reads():
    """The periphery, sleep transistors and repeater penalty do not
    change the survivors (nor does the node, which an ArraySpec does
    not carry), so specs differing only there share one batch."""
    cache = EvalCache()
    base = ArraySpec(capacity_bits=1 << 23, output_bits=512, assoc=8)
    variants = [
        ArraySpec(capacity_bits=1 << 23, output_bits=512, assoc=8,
                  periph_device_type=periphery, sleep_transistors=sleep,
                  max_repeater_delay_penalty=penalty)
        for periphery, sleep, penalty in itertools.product(
            ("hp-long-channel", "lstp"), (False, True), (0.0, 0.5)
        )
    ]
    built = []

    def build(spec):
        built.append(spec)
        return kernels.survivor_batch(spec)

    first = cache.survivors(base, build)
    for spec in variants:
        assert cache.survivors(spec, build) is first
    assert len(built) == 1
    for other in (
        ArraySpec(capacity_bits=1 << 23, output_bits=512, assoc=8, nbanks=2),
        ArraySpec(capacity_bits=1 << 23, output_bits=512, assoc=8,
                  cell_tech=CellTech.LP_DRAM),
    ):
        assert cache.survivors(other, build) is not first
    assert len(built) == 3
