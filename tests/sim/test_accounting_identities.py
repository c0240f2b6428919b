"""Accounting identities: counters that must agree in every golden cell.

The study goldens pin what the simulator did, not what it should do.
Identities between independent counters catch a walk that drops or
double-counts an event without a second model to compare against.
These run over every cell of ``tests/data/golden_study.json`` (24
cells) and ``tests/data/golden_study_wide.json`` (96 cells):

* every L1 read is a read whose latency the core waited for, so
  ``read_count == l1_reads``;
* under the closed-page policy every column access opens its row, so
  ``mem_activates == mem_reads + mem_writes``.
"""

import json
from pathlib import Path

import pytest

from repro.dram.page_policy import ClosedPagePolicy
from repro.study.table3 import build_system_config

DATA = Path(__file__).resolve().parent.parent / "data"


def _cells():
    for name in ("golden_study.json", "golden_study_wide.json"):
        golden = json.loads((DATA / name).read_text())
        matrix = golden["matrix"]
        for run in golden["runs"]:
            source = run.get("source", matrix.get("source"))
            for cell in run["cells"]:
                yield pytest.param(
                    cell, source, matrix["scale"],
                    id=f"{name[:-5]}-{source}-seed{run['seed']}-"
                       f"{cell['app']}-{cell['config']}",
                )


CELLS = list(_cells())


def test_both_goldens_are_covered():
    assert len(CELLS) == 24 + 96


@pytest.mark.parametrize("cell,source,scale", CELLS)
def test_every_read_is_an_l1_read(cell, source, scale):
    stats = cell["stats"]
    assert stats["read_count"] == stats["counters"]["l1_reads"]


@pytest.mark.parametrize("cell,source,scale", CELLS)
def test_closed_page_activates_once_per_access(cell, source, scale):
    config = build_system_config(cell["config"], source=source, scale=scale)
    assert config.page_policy is None or isinstance(
        config.page_policy, ClosedPagePolicy
    )
    counters = cell["stats"]["counters"]
    assert counters["mem_activates"] == (
        counters["mem_reads"] + counters["mem_writes"]
    )
