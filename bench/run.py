#!/usr/bin/env python3
"""End-to-end benchmark with per-layer attribution.

Run one workload (the form the metric contract in ``BENCHMARK.json``
uses)::

    python bench/run.py --workload solve-sweep --seed 3 --seconds 20 --trace 0

or every workload, each in its own fresh interpreter, appending one JSON
record per run to ``--out`` for ``bench/compare.py``::

    python bench/run.py --seed 3 --out runs.jsonl
    python bench/run.py --seed 3 --trace --out traced.jsonl

A run sets up in-process, then replays the workload's request list in
whole passes until ``--seconds`` of passes have elapsed.  With
``--trace 0`` it also times seven set-ups in fresh interpreters
(``setup_s``), spread between the passes, and prints the end-to-end
metrics, then the passes' latencies and throughput as diagnostics; with
``--trace 1`` every pass is followed by an instrumented replay and it
prints the per-layer metrics.  Outputs are checked either way.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any check
fails.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCHEMA = "repro-bench/1"
SETUP_SAMPLES = 7


def git_state() -> tuple[str | None, bool | None]:
    """The checkout's commit and dirty flag, or ``(None, None)`` when it
    is not a git work tree (the benchmark also runs from plain exports)."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30,
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain")
    except OSError:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def header(args, workload) -> dict:
    """The common header every result carries."""
    import numpy

    sha, dirty = git_state()
    return {
        "schema": SCHEMA,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": args.seed,
        "argv": sys.argv,
        "sizes": {"seconds": args.seconds, **workload.sizes()},
    }


def time_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and sets up, then
    exits."""
    import suite

    if name == "cli-cold":
        code = "import repro.cli"
    else:
        code = f"import suite; suite.setup_child({name!r}, {seed})"
    env = {**suite.CHILD_ENV,
           "PYTHONPATH": os.pathsep.join([str(suite.SRC), str(BENCH)])}
    t0 = time.perf_counter()
    # Captured output: without pipes, waiting with a timeout polls the
    # child every 50 ms and rounds the time up to the next poll.
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


def replay(workload, state: dict, seconds: float, trace: bool, setup=None):
    """Whole passes until ``seconds`` of them have elapsed (at least one),
    each traced pass right after its untraced one.

    With ``setup`` (a callable timing one fresh set-up), ``SETUP_SAMPLES``
    set-ups are timed between passes, spread evenly over the passes'
    time and the rest after the last pass: the host's speed changes for
    seconds at a time, and samples taken back to back would all fall in
    one such stretch.  Set-up time does not count against ``seconds``.
    """
    passes, traced, setups = [], [], []
    measured = 0.0

    def due(at: float) -> bool:
        return (setup is not None and len(setups) < SETUP_SAMPLES
                and at >= len(setups) * seconds / SETUP_SAMPLES)

    while not passes or measured < seconds:
        while due(measured):
            setups.append(setup())
        t0 = time.perf_counter()
        untraced = workload.run_pass(state)
        untraced.wall_s = time.perf_counter() - t0
        passes.append(untraced)
        if trace:
            traced.append(workload.traced_pass(state, untraced))
        measured += time.perf_counter() - t0
    while due(seconds):
        setups.append(setup())
    return passes, traced, setups


def failures(workload, state, passes, traced) -> list[str]:
    """Every output that fails a check: per-request errors, passes that
    do not repeat the first, traced replays that differ from the
    untraced one, and the workload's own checks."""
    found = [f for p in passes + traced for f in p.failures]
    reference = passes[0].outputs
    for k, p in enumerate(passes[1:], 1):
        found += [f"pass {k} request {i}: output differs from pass 0"
                  for i, (a, b) in enumerate(zip(p.outputs, reference))
                  if a != b]
    for t, p in zip(traced, passes):
        found += [f"traced request {i}: output differs from untraced"
                  for i, (a, b) in enumerate(zip(t.outputs, p.outputs))
                  if a != b]
    return found + workload.check(state, passes)


def latency_metrics(passes) -> dict:
    """Latency percentiles over the samples of all passes pooled, and
    the median over passes of each pass's measured throughput.

    Per-layer metrics, not end-to-end ones: on a 2-vCPU Intel Xeon their
    ten-seed spread (quartile distance over median) reached 0.49, beyond
    any bound that would catch a 20% regression (see README).
    """
    pooled_ms = [s * 1e3 for p in passes for s in p.latencies]
    percentiles = statistics.quantiles(pooled_ms, n=100, method="inclusive")
    return {
        "request_ms.p50": statistics.median(pooled_ms),
        "request_ms.p90": percentiles[89],
        "request_ms.p99": percentiles[98],
        "requests_per_s": statistics.median(
            len(p.latencies) / p.wall_s for p in passes),
    }


def end_to_end(setups: list[float], name: str) -> dict:
    """The end-to-end metrics of an untraced run."""
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else \
        resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(workload, state, passes, traced) -> dict:
    """Median over traced passes of each layer metric, plus the ones
    measured once per run."""
    names = {n for t in traced for n in t.layers}
    values = {n: statistics.median(t.layers[n] for t in traced
                                   if n in t.layers)
              for n in sorted(names)}
    values.update(latency_metrics(passes))
    values["trace.overhead_frac"] = statistics.median(
        sum(t.latencies) / sum(p.latencies) - 1.0
        for p, t in zip(passes, traced)
    )
    values.update(workload.final_layers(state))
    return values


def select(measured: dict, declared: list[dict], exercised,
           found: list[str]) -> dict:
    """The declared metrics with their units.

    A per-layer metric of a layer this workload does not run reads 0;
    one that should have been measured and was not (a failed request
    left nothing to measure) reads 0 and is added to ``found``.
    """
    out = {}
    for metric in declared:
        name = metric["name"]
        value = measured.get(name)
        if value is None:
            value = 0
            if exercised is None or name.split(".")[0] in exercised:
                found.append(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run_one(args) -> int:
    import suite

    workload = suite.WORKLOADS[args.workload]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    head = header(args, workload)
    print("# header " + json.dumps(head), flush=True)
    setup = None if args.trace else functools.partial(
        time_setup, workload.name, args.seed)
    workdir = suite.make_workdir(workload.name)
    try:
        state = workload.setup(args.seed, workdir)
        state["seed"] = args.seed
        passes, traced, setups = replay(workload, state, args.seconds,
                                        args.trace, setup)
        found = failures(workload, state, passes, traced)
        diagnostics = {}
        if args.trace:
            metrics = select(
                per_layer(workload, state, passes, traced),
                contract["per_layer"], ("trace", *workload.layers), found,
            )
        else:
            metrics = select(end_to_end(setups, workload.name),
                             contract["end_to_end"], None, found)
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
            diagnostics = {n: {"value": v, "unit": units[n]}
                           for n, v in latency_metrics(passes).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes + traced)
    failed = min(len(found), attempted)
    for problem in found[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in {**metrics, **diagnostics}.items():
        print(f"{workload.name:<13} {name:<36} {m['value']:>14.6g} "
              f"{m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        record = {"header": head, "workload": workload.name,
                  "trace": bool(args.trace), "passes": len(passes), **result,
                  "diagnostics": diagnostics}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    import suite

    rc = 0
    for name in suite.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        rc = max(rc, subprocess.run(argv).returncode)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (expected outputs are recorded "
                             "at seed 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run, printing "
                                             "per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per run to this file")
    args = parser.parse_args(argv)
    try:
        import suite
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(suite.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
