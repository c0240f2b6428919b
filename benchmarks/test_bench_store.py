"""Solve-store flush-cost scaling.

Times the hot-path case of flushing ONE dirty record into an
already-populated :class:`~repro.store.SqliteStore` at two resident
sizes and prints the numbers.  The asserted claim is architectural: a
flush upserts only the staged row, so its cost is O(dirty records) and
must NOT grow in proportion to the resident record count.
"""

import time

from repro.store import SqliteStore

VERSION = "bench-v1"

#: Resident-store sizes for the flush-cost scaling measurement.
SIZES = (1_000, 10_000)

#: Repeats for the one-dirty-record flush timing (each repeat stages a
#: fresh record so every flush is genuinely dirty).
FLUSH_REPEATS = 20


#: A solve-record-shaped payload, so serialized sizes are realistic.
def _record(i: int) -> dict:
    return {
        "spec": {"capacity_bits": float(i << 10), "assoc": 8.0},
        "org": {"ndwl": 4, "ndbl": 8, "nspd": 1.0},
        "access_time": i * 1.1e-9,
        "e_read": i * 0.7e-10,
    }


def _time_one_dirty_flush(store) -> float:
    """Mean seconds to flush one staged record into a resident store."""
    t0 = time.perf_counter()
    for r in range(FLUSH_REPEATS):
        store.put(f"fresh-{r:08d}", _record(r))
        store.flush()
    return (time.perf_counter() - t0) / FLUSH_REPEATS


def test_bench_store_flush_is_o_dirty(tmp_path):
    flush_ms = {}
    for size in SIZES:
        store = SqliteStore(tmp_path / f"flush-{size}.db", version=VERSION)
        with store:
            for i in range(size):
                store.put(f"key-{i:08d}", _record(i))
        flush_ms[size] = _time_one_dirty_flush(store) * 1e3
        store.close()

    growth = flush_ms[SIZES[1]] / flush_ms[SIZES[0]]
    print(
        f"\n1-dirty-record flush: {flush_ms[SIZES[0]]:.2f} ms at "
        f"{SIZES[0]:,} resident, {flush_ms[SIZES[1]]:.2f} ms at "
        f"{SIZES[1]:,} (growth {growth:.1f}x)"
    )

    # The 10x resident-size jump must not show up in the flush: allow
    # noise, but nothing like proportional-to-total growth.
    assert growth < 3.0, (
        f"one-dirty-record flush grew {growth:.1f}x when the resident "
        "store grew 10x -- flushes are not O(dirty)"
    )
