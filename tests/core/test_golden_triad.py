"""Golden-equivalence gate for the technology-registry refactor.

``tests/data/golden_triad.json`` records bit-exact solved numbers for
the SRAM / LP-DRAM / COMM-DRAM triad -- representative cache solves,
the paper's Table-3 rows, and the DDR3 validation part -- captured
*before* the registry refactor (``tools/capture_golden.py``).  These
tests re-solve the same inputs through the current code -- one solve
per record, and batches at several job counts on and off the solve
stores -- and assert field-for-field float equality: the registry is a
pure re-plumbing of the technology axis and must change no numbers.

JSON round-trips are exact (shortest-repr floats), so ``==`` on the
re-encoded dicts is bit-identity, not approximation.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.cacti import solve, solve_batch
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.solvecache import metrics_to_dict

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_triad.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def reencode(payload):
    """One JSON round trip: the same normalization the golden file had."""
    return json.loads(json.dumps(payload))


RECORD_IDS = [r["id"] for r in GOLDEN["solves"]]


def assert_matches_record(solution, record):
    assert reencode(metrics_to_dict(solution.data)) == record["data"]
    tag = (
        reencode(metrics_to_dict(solution.tag))
        if solution.tag is not None else None
    )
    assert tag == record["tag"]


def solve_records(**kwargs):
    """Every golden record through one ``solve_batch``, in file order."""
    return solve_batch(
        [MemorySpec(**r["spec"]) for r in GOLDEN["solves"]],
        [TARGETS[r["target"]] for r in GOLDEN["solves"]],
        **kwargs,
    )


@pytest.mark.parametrize("record", GOLDEN["solves"], ids=RECORD_IDS)
def test_solve_matches_golden(record):
    """Every recorded solve reproduces bit-identically.

    The spec kwargs in the golden file use registry *names* for the
    technologies; MemorySpec resolves them, so this test exercises the
    full name -> handle -> traits path.
    """
    spec = MemorySpec(**record["spec"])
    assert_matches_record(solve(spec, TARGETS[record["target"]]), record)


@pytest.fixture(scope="module")
def batch_solutions():
    """Batch solutions of the golden records, memoized per job count."""
    memo = {}

    def at(jobs):
        if jobs not in memo:
            memo[jobs] = solve_records(jobs=jobs)
        return memo[jobs]

    return at


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("index", range(len(RECORD_IDS)), ids=RECORD_IDS)
def test_solves_match_golden(index, jobs, batch_solutions):
    """The golden records solved as one batch across ``jobs`` worker
    processes reproduce bit-identically, each at its own slot."""
    assert_matches_record(
        batch_solutions(jobs)[index], GOLDEN["solves"][index]
    )


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_solves_match_golden_through_the_store(jobs, tmp_path):
    """A persistent solve store must be numerically invisible: batches
    of the golden records through the store (cold, then warm from it)
    reproduce the recorded numbers bit-identically at any job count."""
    from repro.core.solvecache import SolveCache

    store = f"sqlite:{tmp_path / 'solves.db'}"
    for _round in ("cold", "warm"):
        cache = SolveCache(store)
        solutions = solve_records(solve_cache=cache, jobs=jobs)
        for solution, record in zip(solutions, GOLDEN["solves"]):
            assert_matches_record(solution, record)
        cache.close()


def test_table3_matches_golden():
    from repro.study.table3 import solve_table3

    rows = {
        name: reencode(dataclasses.asdict(row))
        for name, row in solve_table3().items()
    }
    assert rows == GOLDEN["table3"]


def test_ddr3_validation_matches_golden():
    from repro.validation.compare import validate_ddr3

    v = validate_ddr3()
    assert reencode(dict(v.errors)) == GOLDEN["ddr3"]["errors"]
    assert (
        reencode(dataclasses.asdict(v.solution.timing))
        == GOLDEN["ddr3"]["timing"]
    )
    assert (
        reencode(dataclasses.asdict(v.solution.energies))
        == GOLDEN["ddr3"]["energies"]
    )
    assert (
        reencode(v.solution.area_efficiency)
        == GOLDEN["ddr3"]["area_efficiency"]
    )
