"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation has a module here that
regenerates it.  The LLC-study figures (4a, 4b, 5a, 5b) share one
simulation matrix, cached per session.

Environment knobs:

* ``REPRO_BENCH_INSTRUCTIONS`` -- instructions per thread for study runs
  (default 60000; larger converges better, smaller runs faster).
* ``REPRO_BENCH_SOURCE`` -- ``paper`` (default) feeds the simulator the
  published Table 3 latencies/energies; ``cacti`` feeds it this
  reproduction's own CACTI-D solutions end-to-end.
"""

import os
import sys
from pathlib import Path

import pytest

# The solver benchmarks time against the test suite's reference oracle
# (tests/reference_sweep.py), imported as ``tests.reference_sweep``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.study.runner import run_study  # noqa: E402

INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "60000"))
SOURCE = os.environ.get("REPRO_BENCH_SOURCE", "paper")


@pytest.fixture(scope="session")
def study_result():
    """The full 8-app x 6-config LLC study matrix."""
    return run_study(
        source=SOURCE, instructions_per_thread=INSTRUCTIONS
    )


#: Every table also lands here, so figures survive output capture.
RESULTS_FILE = os.path.join(os.path.dirname(__file__), "results.txt")


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    with open(RESULTS_FILE, "a") as fh:
        fh.write(text + "\n")
