"""The EvalCache: its decoder driver-chain memo is exact and scoped to its
cache, and a batch sweep memoizes term rows, building ``Subarray``
objects only for the designs it materializes."""

import gc
import importlib
import pkgutil
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro.circuits
from repro.array import kernels
from repro.array.organization import ArraySpec, EvalCache
from repro.array.subarray import Subarray
from repro.circuits.decoder import DecoderMetrics
from repro.circuits.drivers import ChainMetrics
from repro.core.cacti import solve
from repro.core.config import MemorySpec
from repro.tech.nodes import technology
from repro.tech.registry import registered_names

NODES = (32.0, 78.0)
PERIPHERIES = tuple(technology(32).devices)

rows = st.integers(min_value=1, max_value=4096)
#: A few shared column counts make distinct subarrays share a wordline
#: chain, so the memo is hit as well as filled.
cols = st.one_of(
    st.sampled_from([16, 128, 512, 2048]),
    st.integers(min_value=1, max_value=8192),
)


@pytest.mark.parametrize("periphery", PERIPHERIES)
@pytest.mark.parametrize("cell_tech", registered_names())
@given(
    node_nm=st.sampled_from(NODES),
    dims=st.lists(st.tuples(rows, cols), min_size=1, max_size=8),
)
@settings(max_examples=15, deadline=None)
def test_memoized_subarray_equals_uncached(cell_tech, periphery, node_nm,
                                           dims):
    tech = technology(node_nm)
    spec = ArraySpec(
        capacity_bits=1 << 20,
        output_bits=64,
        cell_tech=cell_tech,
        periph_device_type=periphery,
    )
    cache = EvalCache()
    for n_rows, n_cols in dims:
        cached = cache.subarray(tech, spec, n_rows, n_cols)
        plain = Subarray(
            tech=tech,
            cell=tech.cell(spec.cell_tech, periphery),
            periph=tech.device(periphery),
            rows=n_rows,
            cols=n_cols,
        )
        assert plain.chains is None
        assert cached.chains is cache.chains
        assert cached.decoder == plain.decoder
        assert cached.area == plain.area
        assert cached.e_wordline == plain.e_wordline
        assert cached.leakage_fixed == plain.leakage_fixed
    assert cache.chains


SPEC = MemorySpec(capacity_bytes=256 << 10, associativity=8)


def test_separate_caches_share_no_chain():
    first, second = EvalCache(), EvalCache()
    assert solve(SPEC, eval_cache=first) == solve(SPEC, eval_cache=second)
    assert first.chains and first.chains.keys() == second.chains.keys()
    ids = {id(chain) for chain in first.chains.values()}
    assert ids.isdisjoint(id(chain) for chain in second.chains.values())


def test_chains_die_with_their_cache():
    cache = EvalCache()
    solve(SPEC, eval_cache=cache)
    refs = [weakref.ref(chain) for chain in cache.chains.values()]
    assert refs
    del cache
    gc.collect()
    assert all(ref() is None for ref in refs)


def _holds_designs(value, seen) -> bool:
    """True when ``value`` is, or contains, a chain or decoder design."""
    if id(value) in seen:
        return False
    seen.add(id(value))
    if isinstance(value, (ChainMetrics, DecoderMetrics)):
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


def test_solve_builds_subarray_objects_only_for_its_winners(monkeypatch):
    built = []
    post_init = Subarray.__post_init__

    def spy(self):
        built.append((self.rows, self.cols))
        post_init(self)

    monkeypatch.setattr(Subarray, "__post_init__", spy)
    cache = EvalCache()
    solution = solve(SPEC, eval_cache=cache)
    winners = {(solution.data.rows, solution.data.cols),
               (solution.tag.rows, solution.tag.cols)}
    assert sorted(built) == sorted(winners)
    assert cache.subarray_misses > len(winners)


def _batch(tech, spec, cache):
    batch = kernels.survivor_batch(spec)
    kernels.evaluate_batch(tech, spec, batch, cache)
    return batch


def test_term_rows_and_objects_share_one_key_space():
    tech = technology(32.0)
    spec = ArraySpec(capacity_bits=1 << 20, output_bits=64)
    cache = EvalCache()
    batch = _batch(tech, spec, cache)
    distinct = len(set(zip(batch.rows.tolist(), batch.cols.tolist())))
    assert cache.subarray_misses == distinct
    assert cache.subarray_hits + cache.subarray_misses == batch.size
    # A design materialized from the batch is a hit, not a new build ...
    cache.subarray(tech, spec, int(batch.rows[0]), int(batch.cols[0]))
    assert cache.subarray_misses == distinct
    # ... and a subarray first built as an object is a hit for a batch.
    other = EvalCache()
    other.subarray(tech, spec, int(batch.rows[0]), int(batch.cols[0]))
    _batch(tech, spec, other)
    assert other.subarray_misses == distinct
    assert other.subarray_hits + other.subarray_misses == batch.size + 1
