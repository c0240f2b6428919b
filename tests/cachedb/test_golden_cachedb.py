"""Golden equivalence for cachedb answers.

Two contracts anchor the database to the live model:

* an **on-grid** query is *bit-identical* to solving the same spec live
  -- same records, same headline metrics, for every registered
  technology (the database is a cache, not an approximation); and
* an **off-grid** query -- a capacity or a node between grid values
  -- is solved live under ``fallback="solve"``: the same numbers a
  live solve of the same spec gives, bit for bit, for every registered
  technology (the database never blends grid cells).
"""

import json

import pytest

from repro.cachedb import (
    CacheDB,
    CacheDBMiss,
    GridSpec,
    build_cachedb,
    grid_spec_for,
)
from repro.cachedb.schema import DB_METRICS
from repro.core.cacti import solve
from repro.core.solvecache import metrics_to_dict
from repro.tech.registry import registered_names

#: Grid shared by every test in this module: both continuous axes have
#: two points, so a query between them is off the grid, and 1M/2M solve
#: cleanly for every registered technology (comm-dram included).
CAPS = (1 << 20, 2 << 20)
NODES = (32.0, 45.0)


def reencode(payload):
    """One JSON round trip: equality after it is bit-identity."""
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden-cachedb") / "db.json"
    grid = GridSpec(capacities_bytes=CAPS, nodes_nm=NODES)
    report = build_cachedb(path, grid, jobs="auto")
    assert report.holes == 0, "golden grid must solve completely"
    return CacheDB(path)


@pytest.mark.parametrize("tech", registered_names())
def test_on_grid_query_bit_identical_to_live_solve(db, tech):
    spec = grid_spec_for(tech, 32.0, CAPS[0], 64, 8)
    live = solve(spec)
    served = db.query(CAPS[0], cell_tech=tech, node_nm=32.0)
    assert served.source == "exact"
    assert reencode(metrics_to_dict(served.solution.data)) == reencode(
        metrics_to_dict(live.data)
    )
    assert reencode(metrics_to_dict(served.solution.tag)) == reencode(
        metrics_to_dict(live.tag)
    )
    assert served.metrics == {
        name: extract(live) for name, extract in DB_METRICS.items()
    }


@pytest.mark.parametrize("tech", registered_names())
def test_lookup_exact_bit_identical_to_live_solve(db, tech):
    spec = grid_spec_for(tech, 32.0, CAPS[0], 64, 8)
    served = db.lookup_exact(spec)
    assert served is not None
    live = solve(spec)
    assert reencode(metrics_to_dict(served.data)) == reencode(
        metrics_to_dict(live.data)
    )


def _assert_live_solve_between_brackets(db, tech, axis, capacity, node):
    """The query between two bracketing grid values is a miss naming
    ``axis`` under ``fallback="error"`` and, under ``fallback="solve"``,
    the same numbers a live solve of its spec gives, bit for bit -- not
    a grid cell and not a blend of the brackets."""
    with pytest.raises(CacheDBMiss, match=f"{axis} .* not in grid"):
        db.query(capacity, cell_tech=tech, node_nm=node, fallback="error")
    served = db.query(capacity, cell_tech=tech, node_nm=node,
                      fallback="solve")
    live = solve(grid_spec_for(tech, node, capacity, 64, 8), db.target)
    assert served.source == "solve"
    assert served.metrics == {
        name: extract(live) for name, extract in DB_METRICS.items()
    }
    assert reencode(metrics_to_dict(served.solution.data)) == reencode(
        metrics_to_dict(live.data)
    )


# The two tests below keep their names from when an off-grid query was
# interpolated between its brackets. A live solve is not bounded by its
# brackets (stt-ram's random cycle time at 1.5M falls below both the 1M
# and the 2M value), so each now checks the off-grid answer on its axis.
@pytest.mark.parametrize("tech", registered_names())
def test_capacity_interpolation_monotone_between_brackets(db, tech):
    _assert_live_solve_between_brackets(
        db, tech, "capacity", (3 * CAPS[0]) // 2, NODES[0]
    )


@pytest.mark.parametrize("tech", registered_names())
def test_node_interpolation_monotone_between_brackets(db, tech):
    _assert_live_solve_between_brackets(db, tech, "node", CAPS[0], 38.0)
