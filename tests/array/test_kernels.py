"""Vectorized-kernel equivalence: arrays vs. the reference oracle.

The kernels in :mod:`repro.array.kernels` promise bit-identity with the
per-candidate composition of the reference oracle
(``tests/reference_array``).  These tests
enforce the promise property-style: for every registered memory
technology (SRAM, LP-DRAM, COMM-DRAM, STT-RAM), over data arrays, tag
arrays, and a paged commodity-DRAM part, randomized survivor samples
are rebuilt through ``build_organization`` and compared to the designs
the batch reads (``EvaluatedBatch.design``) and to its arrays field for
field with exact ``==`` -- no tolerances anywhere -- and the whole
sweep is checked against the reference oracle in
tests/reference_sweep.py at 32 and 78 nm.
"""

import functools
import random

import pytest

from repro.array import kernels
from repro.array.organization import ArraySpec, EvalCache
from repro.core.cacti import data_array_spec, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import (
    SweepStats,
    filter_constraints,
    optimize,
    pareto_solutions,
    rank,
)
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from repro.tech.registry import registered_names
from tests.reference_array import build_organization
from tests.reference_sweep import (
    reference_candidates,
    reference_feasible,
    reference_ranked,
)

TECH = technology(32.0)

#: Every scalar ArrayMetrics field, the two energy properties included.
METRIC_FIELDS = (
    "rows",
    "cols",
    "nact",
    "sensed_bits",
    "t_access",
    "t_random_cycle",
    "t_interleave",
    "t_decode",
    "t_wordline",
    "t_bitline",
    "t_sense",
    "t_writeback",
    "t_precharge",
    "t_htree_in",
    "t_htree_out",
    "e_activate",
    "e_read_column",
    "e_write_column",
    "e_precharge",
    "e_read_access",
    "e_write_access",
    "p_leakage",
    "p_refresh",
    "area",
    "bank_width",
    "bank_height",
    "area_efficiency",
)


def specs_for(name: str) -> list[ArraySpec]:
    """Data and tag arrays of a 256 KB cache in the named technology,
    plus a paged multi-bank part for commodity DRAM."""
    mem = MemorySpec(
        capacity_bytes=256 << 10,
        associativity=8,
        node_nm=32.0,
        cell_tech=CellTech(name),
    )
    specs = [data_array_spec(mem), tag_array_spec(mem)]
    if name == "comm-dram":
        specs.append(
            ArraySpec(
                capacity_bits=64 << 20,
                output_bits=64,
                assoc=1,
                nbanks=8,
                cell_tech=CellTech.COMM_DRAM,
                periph_device_type="lstp",
                page_bits=8192,
            )
        )
    return specs


def evaluated(spec: ArraySpec):
    batch = kernels.survivor_batch(spec)
    assert batch.size > 0
    return kernels.evaluate_batch(TECH, spec, batch, EvalCache())


@functools.lru_cache(maxsize=None)
def oracle_feasible(spec: ArraySpec):
    return reference_feasible(TECH, spec)


@pytest.mark.parametrize("name", registered_names())
class TestKernelScalarEquivalence:
    def test_batch_matches_prefilter_grid(self, name):
        for spec in specs_for(name):
            batch = kernels.survivor_batch(spec)
            assert batch.candidates() == reference_candidates(spec)

    def test_random_survivors_match_scalar_build_exactly(self, name):
        rng = random.Random(0xC0FFEE)
        for spec in specs_for(name):
            ev = evaluated(spec)
            sample = rng.sample(range(ev.size), k=min(25, ev.size))
            for i in sample:
                org, geometry = ev.batch.org_at(i)
                scalar = build_organization(
                    TECH, spec, org, geometry=geometry
                )
                design = ev.design(i)
                for field in METRIC_FIELDS:
                    assert getattr(design, field) == getattr(
                        scalar, field
                    ), (name, spec.cell_tech, field, org)
                    if hasattr(ev, field):
                        assert float(getattr(ev, field)[i]) == getattr(
                            scalar, field
                        ), (name, spec.cell_tech, field, org)
                assert design == scalar

    def test_feasibility_counts_match_scalar_sweep(self, name):
        for spec in specs_for(name):
            ev = evaluated(spec)
            survivors = len(reference_candidates(spec))
            feasible = len(oracle_feasible(spec))
            assert ev.size == feasible
            assert ev.n_infeasible == survivors - feasible

    def test_rank_batch_matches_scalar_rank_order(self, name):
        target = OptimizationTarget(weight_leakage=2.0)
        for spec in specs_for(name):
            ev = evaluated(spec)
            order = kernels.rank_batch(ev, target)
            designs = oracle_feasible(spec)
            ranked = rank(filter_constraints(designs, target), target)
            assert [ev.batch.org_at(int(i))[0] for i in order] == [
                d.org for d in ranked
            ]

    def test_optimize_is_bit_identical_to_scalar_path(self, name):
        """At 32 and 78 nm, optimize returns the oracle's top design and
        pareto_solutions its full ranked list, in order, field for
        field."""
        target = OptimizationTarget()
        for tech in (TECH, technology(78.0)):
            for spec in specs_for(name):
                ranked = reference_ranked(tech, spec, target)
                assert optimize(tech, spec, target) == ranked[0]
                assert pareto_solutions(tech, spec, target) == ranked


class TestStatsInvariantsOnKernelPath:
    def test_counters_balance_through_optimize(self):
        spec = specs_for("sram")[0]
        obs = Obs(trace=False)
        stats = SweepStats(obs.metrics)
        optimize(TECH, spec, OptimizationTarget(), obs=obs)
        assert stats.enumerated == stats.prefiltered + stats.built
        assert stats.built == stats.feasible + stats.infeasible_at_build
        assert stats.subarray_hits + stats.subarray_misses == stats.built
