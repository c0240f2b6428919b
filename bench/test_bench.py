"""Self-test of the benchmark, outside tier-1: ``python -m pytest bench/``.

Runs every workload for a single pass (``--seconds 0``), untraced and
traced, and checks the contract in ``BENCHMARK.json``; then checks that
the output checks and ``compare.py`` catch what they are meant to catch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900,
    )


def copy_benchmark(dest: Path, with_program: bool) -> Path:
    """The benchmark's own files, optionally beside the program's."""
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        (dest / "src").symlink_to(ROOT / "src")
    return dest


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("runs") / "runs.jsonl"
    for trace in ("0", "1"):
        proc = bench(ROOT, "--seconds", "0", "--trace", trace,
                     "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(records, workload, trace):
    (record,) = [r for r in records
                 if r["workload"] == workload and r["trace"] == trace]
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in record["metrics"].items()
    }
    values = [m["value"] for m in record["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    for key in ("schema", "git_sha", "git_dirty", "python", "numpy",
                "nproc", "date", "seed", "argv", "sizes"):
        assert key in record["header"]


def test_tampered_expected_output_fails(tmp_path):
    root = copy_benchmark(tmp_path, with_program=True)
    expected = root / "bench" / "expected" / "cli" / "cache-2m.txt"
    expected.write_text(expected.read_text().replace("1", "2"))
    proc = bench(root, "--workload", "cli-cold", "--seconds", "0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = copy_benchmark(tmp_path, with_program=False)
    proc = bench(root, "--workload", "solve-sweep", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def synthetic_runs(path: Path, scale: float = 1.0, failed: int = 0,
                   seconds: int = 20, jitter: float = 0.01) -> Path:
    """Five runs of one workload whose metrics step by ``jitter``;
    every metric made worse by the factor ``scale``."""
    with path.open("w") as fh:
        for k in range(5):
            metrics = {
                m["name"]: {"value": 10.0 * (1 + jitter * k) * (
                    scale if m["better"] == "lower" else 1 / scale),
                    "unit": m["unit"]}
                for m in CONTRACT["end_to_end"]
            }
            fh.write(json.dumps({
                "header": {"sizes": {"seconds": seconds}},
                "workload": "solve-sweep", "trace": False, "correct": True,
                "attempted": 100, "failed": failed, "metrics": metrics,
            }) + "\n")
    return path


def compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )


def test_compare_passes_an_identical_pair(tmp_path):
    runs = synthetic_runs(tmp_path / "runs.jsonl")
    proc = compare(runs, runs)
    assert proc.returncode == 0, proc.stdout
    assert "regression" not in proc.stdout


def test_compare_flags_a_20_percent_regression(tmp_path):
    old = synthetic_runs(tmp_path / "old.jsonl")
    new = synthetic_runs(tmp_path / "new.jsonl", scale=1.2)
    proc = compare(old, new)
    assert proc.returncode == 1
    # setup_s carries the largest bound, 0.25 (see README)
    tighter = [m for m in CONTRACT["end_to_end"] if m["bound"] < 0.2]
    assert tighter and proc.stdout.count("regression") == len(tighter)


def test_compare_flags_a_clear_regression_despite_wide_spread(tmp_path):
    old = synthetic_runs(tmp_path / "old.jsonl", jitter=0.15)
    new = synthetic_runs(tmp_path / "new.jsonl", jitter=0.15, scale=2.0)
    proc = compare(old, new)
    assert proc.returncode == 1
    assert proc.stdout.count("regression") == len(CONTRACT["end_to_end"])


def test_compare_calls_an_overlapping_change_unresolved(tmp_path):
    old = synthetic_runs(tmp_path / "old.jsonl", jitter=0.15)
    new = synthetic_runs(tmp_path / "new.jsonl", jitter=0.15, scale=1.2)
    proc = compare(old, new)
    assert proc.returncode == 0
    assert proc.stdout.count("unresolved") == len(CONTRACT["end_to_end"])


def test_compare_flags_more_failures(tmp_path):
    old = synthetic_runs(tmp_path / "old.jsonl")
    new = synthetic_runs(tmp_path / "new.jsonl", failed=1)
    proc = compare(old, new)
    assert proc.returncode == 1
    assert "more failures" in proc.stdout


def test_compare_refuses_different_run_sizes(tmp_path):
    old = synthetic_runs(tmp_path / "old.jsonl")
    new = synthetic_runs(tmp_path / "new.jsonl", seconds=10)
    assert compare(old, new).returncode == 2
