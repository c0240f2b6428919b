"""The EvalCache: its memoized subarray term rows equal uncached ones,
it and the circuit modules hold no circuit objects, and solving builds
no ``Subarray`` or ``HTree`` object -- every solved design is read from
the kernel arrays."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.circuits
from repro.array import kernels
from repro.array.organization import (
    MIN_COLS,
    MIN_ROWS,
    ArraySpec,
    EvalCache,
    OrgParams,
    subarray_keys,
)
from repro.circuits.drivers import ChainMetrics
from repro.core.cacti import solve
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import feasible_designs, pareto_solutions
from repro.tech.nodes import technology
from repro.tech.registry import registered_names
from tests.reference_array import (
    DecoderMetrics,
    HTree,
    Subarray,
    build_organization,
)

NODES = (32.0, 78.0)
PERIPHERIES = tuple(technology(32).devices)

#: The survivor domain: every pre-filter survivor has at least
#: MIN_ROWS rows and MIN_COLS columns.
rows = st.integers(min_value=MIN_ROWS, max_value=4096)
#: A few shared column counts make lookups repeat, so the memo is hit
#: as well as filled.
cols = st.one_of(
    st.sampled_from([16, 128, 512, 2048]),
    st.integers(min_value=MIN_COLS, max_value=8192),
)


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("periphery", PERIPHERIES)
@pytest.mark.parametrize("cell_tech", registered_names())
@given(
    node_nm=st.sampled_from(NODES),
    lookups=st.lists(
        st.lists(st.tuples(rows, cols), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=15, deadline=None)
def test_memoized_subarray_equals_uncached(cell_tech, periphery, node_nm,
                                           lookups):
    """Term rows served by the memo, across repeated lookups, equal the
    rows computed afresh, and each lookup counts once."""
    tech = technology(node_nm)
    spec = ArraySpec(
        capacity_bits=1 << 20,
        output_bits=64,
        cell_tech=cell_tech,
        periph_device_type=periphery,
    )

    def build(r, c):
        return kernels.subarray_terms(tech, spec.cell_tech, periphery, r, c)

    cache = EvalCache()
    seen = set()
    for dims in lookups:
        pairs = sorted(set(dims))
        keys = subarray_keys(
            np.array([r for r, _ in pairs]), np.array([c for _, c in pairs])
        )
        counts = np.array([dims.count(pair) for pair in pairs])
        table = cache.subarray_terms(tech, spec, keys, counts, build)
        seen.update(pairs)
        for (n_rows, n_cols), row in zip(pairs, table):
            fresh = build(np.array([n_rows]), np.array([n_cols]))[0]
            assert all(map(same, row.tolist(), fresh.tolist()))
    assert cache.subarray_misses == len(seen)
    assert cache.subarray_hits + cache.subarray_misses == sum(
        len(dims) for dims in lookups
    )


SPEC = MemorySpec(capacity_bytes=256 << 10, associativity=8)


def _holds_designs(value, seen) -> bool:
    """True when ``value`` is, or contains, a circuit object: a
    subarray, an H-tree, a decoder or a driver chain."""
    if id(value) in seen:
        return False
    seen.add(id(value))
    if isinstance(value, (Subarray, HTree, ChainMetrics, DecoderMetrics)):
        return True
    if callable(getattr(value, "cache_info", None)):  # functools caches
        return value.cache_info().currsize > 0
    if isinstance(value, dict):
        return any(
            _holds_designs(k, seen) or _holds_designs(v, seen)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_designs(item, seen) for item in value)
    return False


def test_circuit_modules_hold_no_chain_memo_after_a_solve():
    solve(SPEC, eval_cache=EvalCache())
    for info in pkgutil.iter_modules(repro.circuits.__path__):
        module = importlib.import_module(f"repro.circuits.{info.name}")
        for name, value in vars(module).items():
            assert not _holds_designs(value, set()), (
                f"repro.circuits.{info.name}.{name} holds a memoized design"
            )


def test_solving_builds_no_subarray_or_htree_objects(monkeypatch):
    built = []

    def spy(cls):
        init = cls.__init__

        def record(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", record)

    spy(Subarray)
    spy(HTree)
    tech = technology(32.0)
    spec = ArraySpec(capacity_bits=1 << 20, output_bits=64)
    cache = EvalCache()
    assert solve(SPEC, eval_cache=cache)
    assert pareto_solutions(tech, spec, OptimizationTarget(),
                            eval_cache=cache)
    assert feasible_designs(tech, spec, cache=cache)
    assert built == []
    assert not _holds_designs(vars(cache), set())
    assert cache.subarray_misses > 0
    # The spies do see the scalar reference build its objects.
    build_organization(tech, spec, OrgParams(ndwl=4, ndbl=4, nspd=1.0))
    assert sorted(set(built)) == ["HTree", "Subarray"]


def _batch(tech, spec, cache):
    batch = kernels.survivor_batch(spec)
    kernels.evaluate_batch(tech, spec, batch, cache)
    return batch


def test_term_rows_count_one_lookup_per_candidate():
    tech = technology(32.0)
    spec = ArraySpec(capacity_bits=1 << 20, output_bits=64)
    cache = EvalCache()
    batch = _batch(tech, spec, cache)
    distinct = len(set(zip(batch.rows.tolist(), batch.cols.tolist())))
    assert cache.subarray_misses == distinct
    assert cache.subarray_hits + cache.subarray_misses == batch.size
    # A second sweep of the spec finds every row in the memo.
    _batch(tech, spec, cache)
    assert cache.subarray_misses == distinct
    assert cache.subarray_hits + cache.subarray_misses == 2 * batch.size
