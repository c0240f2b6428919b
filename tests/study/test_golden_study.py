"""Study golden: the reduced LLC-study matrix reproduces bit-identically.

``tests/data/golden_study.json`` records, for every (app, config) cell
of a reduced study matrix at two seeds, the ``SimStats`` field for field
and the Figure 4(b)/5(a)/5(b) numbers derived from them: normalized
cycles, memory-hierarchy power and energy-delay.  It was captured
(``tools/capture_golden.py study``) before the simulator hot-path
rewrite; any simulator refactor must leave every number unchanged.

``tests/data/golden_study_wide.json`` widens the pin to every NPB app x
every configuration on both energy sources (``paper``, the default of
``run_study``, and ``cacti``, whose L3 latencies come from the solver)
at a short instruction count and one seed.

JSON round-trips are exact (shortest-repr floats), so ``==`` on the
re-encoded records is bit-identity, not approximation.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from capture_golden import study_cells  # noqa: E402

GOLDEN = json.loads((REPO / "tests" / "data" / "golden_study.json")
                    .read_text())
WIDE = json.loads((REPO / "tests" / "data" / "golden_study_wide.json")
                  .read_text())


@pytest.mark.parametrize("run", GOLDEN["runs"],
                         ids=[f"seed{r['seed']}" for r in GOLDEN["runs"]])
def test_study_matches_golden(run):
    cells = json.loads(json.dumps(study_cells(GOLDEN["matrix"],
                                              run["seed"])))
    assert len(cells) == len(run["cells"])
    for got, want in zip(cells, run["cells"]):
        assert got == want, f"{want['app']} x {want['config']} differs"


def test_golden_covers_every_behaviour_class():
    matrix = GOLDEN["matrix"]
    assert len(matrix["apps"]) * len(matrix["configs"]) == len(
        GOLDEN["runs"][0]["cells"])
    assert {c["config"] for c in GOLDEN["runs"][0]["cells"]} == {
        "nol3", "sram", "cm_dram_c"}


@pytest.mark.parametrize("run", WIDE["runs"],
                         ids=[r["source"] for r in WIDE["runs"]])
def test_wide_study_matches_golden(run):
    cells = json.loads(json.dumps(study_cells(WIDE["matrix"], run["seed"],
                                              run["source"])))
    assert len(cells) == len(run["cells"])
    for got, want in zip(cells, run["cells"]):
        assert got == want, (
            f"{run['source']}: {want['app']} x {want['config']} differs")


def test_wide_golden_covers_the_full_matrix():
    from repro.study.table3 import CONFIG_NAMES
    from repro.workloads.npb import NPB_PROFILES

    assert {r["source"] for r in WIDE["runs"]} == {"paper", "cacti"}
    for run in WIDE["runs"]:
        assert [(c["app"], c["config"]) for c in run["cells"]] == [
            (p.name, config) for p in NPB_PROFILES for config in CONFIG_NAMES
        ]
