"""Store-backend throughput and flush-cost scaling.

Times both :class:`~repro.store.KVStore` backends on the operations the
solve pipeline actually issues -- bulk puts, random gets, and the
hot-path case of flushing ONE dirty record into an already-populated
store -- and prints the numbers.

The asserted claim is the architectural one from the issue: the sqlite
backend's flush cost is O(dirty records), not O(total records).  The
JSON backend rewrites the whole file per flush, so its one-dirty-record
flush grows linearly from 1k to 10k resident records; sqlite's upserts
only the staged row, so its flush must NOT grow proportionally.
"""

import time

from repro.store import JsonFileStore, SqliteStore

VERSION = "bench-v1"

#: Resident-store sizes for the flush-cost scaling measurement.
SIZES = (1_000, 10_000)

#: Records in the put/get throughput measurement.
THROUGHPUT_RECORDS = 2_000

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


def _make(backend, tmp_path, name):
    if backend == "json":
        return JsonFileStore(tmp_path / f"{name}.json", version=VERSION)
    return SqliteStore(tmp_path / f"{name}.db", version=VERSION)


def _fill(store, n):
    with store:
        for i in range(n):
            store.put(f"key-{i:08d}", _record(i))


def _time_one_dirty_flush(store, n_resident) -> float:
    """Mean seconds to flush one staged record into a resident store."""
    t0 = time.perf_counter()
    for r in range(FLUSH_REPEATS):
        store.put(f"fresh-{r:08d}", _record(r))
        store.flush()
    return (time.perf_counter() - t0) / FLUSH_REPEATS


def test_bench_store_backends(tmp_path):
    for backend in ("json", "sqlite"):
        store = _make(backend, tmp_path, "throughput")
        t0 = time.perf_counter()
        _fill(store, THROUGHPUT_RECORDS)
        put_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        for i in range(THROUGHPUT_RECORDS):
            assert store.get(f"key-{i:08d}") is not None
        get_wall = time.perf_counter() - t0
        store.close()

        print(
            f"\n{backend}: {THROUGHPUT_RECORDS / put_wall:,.0f} puts/s  "
            f"{THROUGHPUT_RECORDS / get_wall:,.0f} gets/s"
        )

    flush_ms = {}
    for backend in ("json", "sqlite"):
        flush_ms[backend] = {}
        for size in SIZES:
            store = _make(backend, tmp_path, f"flush-{size}")
            _fill(store, size)
            flush_ms[backend][str(size)] = (
                _time_one_dirty_flush(store, size) * 1e3
            )
            store.close()

    json_growth = flush_ms["json"]["10000"] / flush_ms["json"]["1000"]
    sqlite_growth = (
        flush_ms["sqlite"]["10000"] / flush_ms["sqlite"]["1000"]
    )
    print(
        f"\n1-dirty-record flush at 10k resident: "
        f"json {flush_ms['json']['10000']:.2f} ms  "
        f"sqlite {flush_ms['sqlite']['10000']:.2f} ms  "
        f"(growth 1k->10k: json {json_growth:.1f}x, "
        f"sqlite {sqlite_growth:.1f}x)"
    )

    # The acceptance claim.  The 10x resident-size jump must show up in
    # the JSON backend's whole-file rewrite (comfortably super-linear
    # vs sqlite's) while the sqlite flush stays O(dirty): allow noise,
    # but nothing like proportional-to-total growth.
    assert sqlite_growth < 3.0, (
        f"sqlite one-dirty-record flush grew {sqlite_growth:.1f}x when "
        "the resident store grew 10x -- flushes are not O(dirty)"
    )
    assert (
        flush_ms["sqlite"]["10000"] < flush_ms["json"]["10000"]
    ), "sqlite flush at 10k records should beat the JSON whole-file rewrite"
