"""Ablation: page policy at system level, with the full simulator.

The closed-form crossover analysis (test_bench_page_policy.py) says open
page wins only when the page-hit ratio is high.  This bench checks the
claim end to end: the same application runs on the nol3 system under an
open-page and a closed-page memory controller.  Interleaved multithreaded
LLC-class traffic produces few row hits, so closed page should not lose;
a single-threaded streaming workload rows hit constantly, favouring open
page.
"""

import dataclasses

from conftest import print_table

from repro.dram.page_policy import ClosedPagePolicy, OpenPagePolicy
from repro.sim.system import run_workload
from repro.study.table3 import build_system_config
from repro.workloads.micro import STREAM
from repro.workloads.npb import CG_C, FT_B
from repro.workloads.synthetic import event_batches

INSTR = 25_000


def run_app(profile, policy):
    config = dataclasses.replace(
        build_system_config("nol3", scale=16), page_policy=policy
    )
    scaled = profile.scaled(16)
    return run_workload(
        config,
        lambda tid: event_batches(scaled, tid, config.num_threads),
    ), config


STREAMING = STREAM.with_instructions(INSTR)


def test_system_page_policy(benchmark):
    def run_all():
        out = {}
        for app in (FT_B.with_instructions(INSTR),
                    CG_C.with_instructions(INSTR),
                    STREAMING):
            for policy in (OpenPagePolicy(), ClosedPagePolicy()):
                stats, config = run_app(app, policy)
                out[(app.name, policy.name)] = stats
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [app, policy, f"{stats.ipc:.2f}",
         f"{stats.average_read_latency:.1f}"]
        for (app, policy), stats in results.items()
    ]
    print_table(
        "Page policy at system level (nol3 configuration)",
        ["app", "policy", "IPC", "avg read latency"],
        rows,
    )

    def ipc(app, policy):
        return results[(app, policy)].ipc

    # Interleaved multithreaded traffic: closed page within a few percent
    # of (or better than) open page -- the paper's section 3.4 argument.
    for app in ("ft.B", "cg.C"):
        assert ipc(app, "closed") >= ipc(app, "open") * 0.93

    # Streaming with long sequential runs: open page must not lose, and
    # typically wins on latency.
    open_lat = results[("micro.stream", "open")].average_read_latency
    closed_lat = results[("micro.stream", "closed")].average_read_latency
    assert open_lat <= closed_lat * 1.05
