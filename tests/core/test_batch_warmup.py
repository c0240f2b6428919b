"""A batch scope on the EvalCache changes when work is done, never what.

Inside ``EvalCache.batch`` the first sweep pre-filters every announced
sweep and the first term lookup of each (cell technology, periphery,
node) group builds the whole group's subarray terms in one call.  The
reference is the same batch with the scope switched off: each spec
solved in turn on one shared EvalCache.  Solutions, holes and every
counter must match.
"""

from contextlib import nullcontext

import pytest

from repro.array import kernels
from repro.array.organization import EvalCache
from repro.cachedb import CacheDB, GridSpec, build_cachedb, grid_spec_for
from repro.core.cacti import solve, solve_batch
from repro.core.config import MemorySpec
from repro.core.resilience import ResiliencePolicy
from repro.core.solvecache import SolveCache
from repro.obs import Obs

#: A reduced cachedb grid whose 4 KB 16-way cells have no feasible
#: organization, so the build records holes.
GRID = GridSpec(
    capacities_bytes=(4 << 10, 16 << 10, 256 << 10),
    associativities=(0, 8, 16),
    nodes_nm=(32.0, 90.0),
    technologies=("sram", "comm-dram"),
)

BATCH = [
    MemorySpec(capacity_bytes=capacity, associativity=assoc,
               node_nm=node, cell_tech=tech)
    for tech in ("sram", "lp-dram")
    for node in (32.0, 65.0)
    for capacity, assoc in ((64 << 10, 8), (1 << 20, 16), (256 << 10, None))
]


def sweep_counters(obs: Obs) -> dict:
    counters = obs.metrics.snapshot()["counters"]
    picked = {
        name: value for name, value in counters.items()
        if name.startswith(("optimizer.", "eval_cache.subarray."))
        and not name.endswith("_s")
    }
    assert picked["optimizer.enumerated"] > 0
    return picked


@pytest.fixture
def term_calls(monkeypatch):
    """The subarray term kernel's runs on a non-empty input (a sweep
    with no survivor asks for an empty table)."""
    calls = []
    kernel = kernels.subarray_terms

    def spy(*args):
        if len(args[3]):
            calls.append(len(args[3]))
        return kernel(*args)

    monkeypatch.setattr(kernels, "subarray_terms", spy)
    return calls


def unscoped(monkeypatch) -> None:
    """Switch the batch scope off: every sweep builds its own terms."""
    monkeypatch.setattr(EvalCache, "batch", lambda self, sweeps: nullcontext())


def build(tmp_path, name: str):
    """A build's report, its cells' Solutions read through the reader
    (None at a hole) and its sweep counters."""
    obs = Obs(trace=False)
    path = tmp_path / f"{name}.db"
    report = build_cachedb(path, GRID, jobs=1, obs=obs)
    db = CacheDB(path)
    cells = {}
    for key, coords in GRID.points():
        try:
            spec = grid_spec_for(*coords)
        except ValueError:
            cells[key] = None
            continue
        cells[key] = db.lookup_exact(spec)
    return report, cells, sweep_counters(obs)


def test_warmed_cachedb_build_matches_spec_by_spec(tmp_path, monkeypatch,
                                                   term_calls):
    report, cells, counters = build(tmp_path, "warmed")
    warmed_calls = len(term_calls)
    assert report.holes > 0 and report.solved > 0

    term_calls.clear()
    with monkeypatch.context() as patch:
        unscoped(patch)
        ref_report, ref_cells, ref_counters = build(tmp_path, "serial")

    assert cells == ref_cells
    assert sum(cell is None for cell in cells.values()) == report.holes
    assert (report.solved, report.holes) == (ref_report.solved,
                                             ref_report.holes)
    assert counters == ref_counters
    # One term pass per (cell technology, periphery, node) group, where
    # spec-by-spec solving makes one per sweep that meets new subarrays.
    groups = {(tech, node) for tech in GRID.technologies
              for node in GRID.nodes_nm}
    assert warmed_calls == len(groups) < len(term_calls)


def test_warmed_solve_batch_matches_spec_by_spec(monkeypatch, term_calls):
    obs = Obs(trace=False)
    warmed = solve_batch(BATCH, obs=obs, jobs=1)
    assert len(term_calls) == 4  # {sram, lp-dram} x {32, 65} nm

    ref_obs = Obs(trace=False)
    with monkeypatch.context() as patch:
        unscoped(patch)
        cache = EvalCache()
        reference = [solve(spec, eval_cache=cache, obs=ref_obs)
                     for spec in BATCH]
    assert warmed == reference
    assert sweep_counters(obs) == sweep_counters(ref_obs)


def test_solve_builds_data_and_tag_terms_in_one_pass(monkeypatch,
                                                     term_calls):
    spec = MemorySpec(capacity_bytes=2 << 20, associativity=8)
    obs = Obs(trace=False)
    solution = solve(spec, obs=obs)
    assert len(term_calls) == 1

    ref_obs = Obs(trace=False)
    with monkeypatch.context() as patch:
        unscoped(patch)
        assert solve(spec, obs=ref_obs) == solution
    assert sweep_counters(obs) == sweep_counters(ref_obs)


def test_batch_served_from_a_store_builds_nothing(tmp_path, monkeypatch,
                                                  term_calls):
    store = SolveCache(tmp_path / "solves.db")
    first = solve_batch(BATCH[:4], solve_cache=store, jobs=1)
    term_calls.clear()
    prefiltered = []
    survivor_batch = kernels.survivor_batch

    def spy(spec):
        prefiltered.append(spec)
        return survivor_batch(spec)

    monkeypatch.setattr(kernels, "survivor_batch", spy)
    assert solve_batch(BATCH[:4], solve_cache=store, jobs=1) == first
    assert term_calls == [] and prefiltered == []


def test_a_spec_that_cannot_be_announced_still_fails_alone():
    """A spec whose arrays cannot be derived is left out of the scope;
    its own solve reports the error as that slot's failure."""
    bad = MemorySpec(capacity_bytes=64 << 10, associativity=8,
                     node_nm=20.0)
    outcome = solve_batch([BATCH[0], bad, BATCH[1]], jobs=1,
                          resilience=ResiliencePolicy(on_error="skip"))
    assert outcome[0] == solve(BATCH[0]) and outcome[2] == solve(BATCH[1])
    assert outcome[1] is None
    (failure,) = outcome.failed
    assert failure.index == 1 and failure.error_type == "ValueError"


def test_nested_scope_is_a_no_op():
    cache = EvalCache()
    with cache.batch([]):
        with cache.batch([("ignored", "sweeps")]):
            assert cache._announced == []
    assert cache._announced is None
