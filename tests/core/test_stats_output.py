"""Pins the ``--stats`` report of the CLI line for line.

Every counter line is compared exactly; only the measured times are
masked (``<t> ms``).  The subarray-cache counts of a parallel sweep
depend on which worker solves which point, so that one line is pinned
by format only.
"""

import re

from repro.cli import main

_TIME = re.compile(r"\d+\.\d ms")


def stats_block(capsys) -> list[str]:
    """The masked lines ``--stats`` printed after the command's output."""
    out = capsys.readouterr().out
    block = out.rstrip("\n").rsplit("\n\n", 1)[-1]
    return [_TIME.sub("<t> ms", line) for line in block.splitlines()]


def test_cache_stats_lines(capsys):
    assert main(["cache", "--capacity", "2M", "--assoc", "8", "--stats"]) == 0
    assert stats_block(capsys) == [
        "candidates enumerated : 28812",
        "pre-filtered (cheap)  : 25487 (88.5%)",
        "built                 : 3325",
        "infeasible at build   : 0",
        "feasible designs      : 3325",
        "subarray cache        : 3173 hits / 152 misses (95.4%)",
        "solve cache           : 0 hits / 0 misses",
        "wall time             : <t> ms",
        "phase prefilter       : <t> ms",
        "phase build           : <t> ms",
        "phase rank            : <t> ms",
    ]


def test_parallel_sweep_stats_lines(capsys):
    assert main([
        "sweep", "--capacity", "256K", "--assoc", "8",
        "--parameter", "associativity", "--values", "4,8",
        "--jobs", "2", "--stats",
    ]) == 0
    lines = stats_block(capsys)
    subarray = lines.pop(5)
    assert re.fullmatch(
        r"subarray cache        : \d+ hits / \d+ misses \(\d+\.\d%\)",
        subarray,
    ), subarray
    # Worker CPU is reported on its own lines; the parent ran no sweep
    # phase itself, so no parent ``phase`` line appears.
    assert lines == [
        "candidates enumerated : 57624",
        "pre-filtered (cheap)  : 53327 (92.5%)",
        "built                 : 4297",
        "infeasible at build   : 0",
        "feasible designs      : 4297",
        "solve cache           : 0 hits / 0 misses",
        "wall time             : <t> ms",
        "workers               : 2 payloads, <t> ms worker wall time",
        "worker phase prefilter: <t> ms (CPU)",
        "worker phase build    : <t> ms (CPU)",
        "worker phase rank     : <t> ms (CPU)",
    ]
    assert not any(line.startswith("phase ") for line in lines)
