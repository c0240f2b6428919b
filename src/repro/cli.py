"""Command-line interface, in the spirit of the original CACTI tool.

Usage::

    python -m repro cache --capacity 2M --assoc 8 --tech lp-dram
    python -m repro cache --capacity 2M --cache solves.db
    python -m repro cache --capacity 2M \
        --cache "sqlite:solves.db?max_records=10000"
    python -m repro cache info solves.db
    python -m repro cache gc solves.db
    python -m repro main-memory --capacity 1G --node 78 --pins 8
    python -m repro validate-ddr3
    python -m repro table3 --cache table3.db
    python -m repro study --configs nol3,sram --resume study.journal
    python -m repro sweep --capacity 2M --parameter capacity_bytes \
        --values 1M,2M,4M,8M --cache sweep.db
    python -m repro cachedb build grid.db --capacities 64K,256K,1M \
        --nodes 32,45
    python -m repro cachedb query grid.db --capacity 96K --node 38
    python -m repro cachedb info grid.db

Sizes accept K/M/G suffixes (powers of two).  The multi-task runs
(``study``, ``sweep``, ``cachedb build``) take ``--jobs N`` and the
``--on-error {raise,skip,retry}``, ``--retries`` and ``--task-timeout``
fault-tolerance knobs.  A solve's checkpoint is its store: rerun
``table3`` or ``sweep`` with the same ``--cache``, or a ``cachedb
build`` into the same path, to resume.  Only ``study``, whose cells are
simulations no store holds, takes ``--resume PATH`` (a journal).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.array.mainmem import MainMemorySpec
from repro.core.cacti import solve, solve_main_memory
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    AccessMode,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.optimizer import NoFeasibleSolution, SweepStats
from repro.core.resilience import ON_ERROR_POLICIES, Journal, ResiliencePolicy
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.registry import registered_names

_PRESETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def parse_size(text: str) -> int:
    """Parse '32K', '2M', '1G' (powers of two) or a raw integer.

    Sizes must be positive: a zero or negative capacity would only
    surface later as a confusing arithmetic error deep in the solver.
    """
    text = text.strip().upper()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in multipliers:
        if text[-1] == text:
            raise ValueError(f"no number in size {text!r}")
        value = int(float(text[:-1]) * multipliers[text[-1]])
    else:
        value = int(text)
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return value


def _size_arg(text: str) -> int:
    """argparse ``type=`` wrapper: surface parse_size's message verbatim.

    argparse swallows ValueError and prints a generic "invalid value";
    ArgumentTypeError keeps "size must be positive, got ..." visible.
    """
    try:
        return parse_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _jobs_arg(text: str) -> int | str:
    """argparse ``type=`` wrapper for ``--jobs``: an integer or ``auto``.

    ``auto``, like ``0``, means all cores
    (:func:`repro.core.parallel.resolve_jobs`); a run never starts more
    workers than it has tasks.
    """
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CACTI-D reproduction: memory-hierarchy modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache = sub.add_parser("cache", help="solve a cache or plain memory")
    # --capacity is required for solving but checked manually: the
    # store-maintenance subcommands below (info/gc) share this parser
    # and take a store argument instead.
    cache.add_argument("--capacity", type=_size_arg, default=None,
                       help="e.g. 32K, 2M, 192M (required to solve)")
    cache.add_argument("--block", type=_size_arg, default=64)
    cache.add_argument("--assoc", type=int, default=8,
                       help="associativity; 0 for a plain RAM")
    cache.add_argument("--banks", type=int, default=1)
    cache.add_argument("--node", type=float, default=32.0,
                       help="feature size in nm (32-90)")
    # Choices come from the technology registry, so a tech module
    # registered at import time (e.g. stt-ram) is solvable with no CLI
    # edits, and an unknown name exits 2 listing the registered ones.
    cache.add_argument("--tech", default="sram",
                       choices=sorted(registered_names()))
    cache.add_argument("--tag-tech", default=None, dest="tag_tech",
                       choices=sorted(registered_names()),
                       help="tag-array technology (default: same as "
                            "--tech)")
    cache.add_argument("--sequential", action="store_true",
                       help="tag-then-data access mode")
    cache.add_argument("--sleep-transistors", action="store_true")
    cache.add_argument("--optimize", default="balanced",
                       choices=sorted(_PRESETS))
    cache.add_argument("--cachedb", metavar="PATH", default=None,
                       help="precomputed design-space database; an exact "
                            "grid hit is served from it instead of solving")

    # Solve-store maintenance rides the cache command as optional
    # subcommands; `repro cache --capacity ...` keeps solving as before.
    cache_ops = cache.add_subparsers(
        dest="cache_command", required=False,
        metavar="{info,gc}",
    )
    cache_info = cache_ops.add_parser(
        "info", help="describe a solve store (records, versions, size)"
    )
    cache_info.add_argument("store", help="store path or sqlite: URL")
    cache_gc = cache_ops.add_parser(
        "gc",
        help="reclaim a solve store: delete tombstoned records and "
             "records of other model versions, compact the file",
    )
    cache_gc.add_argument("store", help="store path or sqlite: URL")

    mm = sub.add_parser("main-memory", help="solve a main-memory DRAM chip")
    mm.add_argument("--capacity", required=True, type=_size_arg,
                    help="bits, e.g. 1G = 1 Gb")
    mm.add_argument("--node", type=float, default=32.0)
    mm.add_argument("--banks", type=int, default=8)
    mm.add_argument("--pins", type=int, default=8)
    mm.add_argument("--burst", type=int, default=8)
    mm.add_argument("--page", type=_size_arg, default=8192,
                    help="page size in bits")

    validate = sub.add_parser(
        "validate-ddr3", help="reproduce the paper's Table 2 validation"
    )
    table3 = sub.add_parser(
        "table3", help="solve the LLC study's Table 3 columns"
    )

    # No abbreviations: a study takes no --cache, which must not pass
    # for a prefix of --cachedb.
    study = sub.add_parser(
        "study", help="run the LLC study matrix (apps x configurations)",
        allow_abbrev=False,
    )
    study.add_argument("--apps", default=None, metavar="A,B,...",
                       help="comma-separated app subset (default: all)")
    study.add_argument("--configs", default=None, metavar="C1,C2,...",
                       help="comma-separated configuration subset "
                            "(default: all six)")
    study.add_argument("--source", default="paper",
                       choices=("paper", "cacti"),
                       help="latency/energy source: published Table 3 "
                            "values or the live solver")
    study.add_argument("--scale", type=int, default=16,
                       help="capacity-scaling factor for tractable runs")
    study.add_argument("--instructions", type=int, default=None,
                       metavar="N", help="instructions per thread")
    study.add_argument("--seed", type=int, default=1234)
    study.add_argument("--cachedb", metavar="PATH", default=None,
                       help="precomputed design-space database serving the "
                            "--source cacti solves")

    sweep = sub.add_parser(
        "sweep", help="sensitivity sweep of one spec parameter"
    )
    sweep.add_argument("--capacity", required=True, type=_size_arg)
    sweep.add_argument("--block", type=_size_arg, default=64)
    sweep.add_argument("--assoc", type=int, default=8,
                       help="associativity; 0 for a plain RAM")
    sweep.add_argument("--banks", type=int, default=1)
    sweep.add_argument("--node", type=float, default=32.0)
    sweep.add_argument("--tech", default="sram",
                       choices=sorted(registered_names()))
    sweep.add_argument("--parameter", required=True,
                       help="spec field to sweep (e.g. capacity_bytes)")
    sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                       help="comma-separated sweep values (sizes accept "
                            "K/M/G suffixes)")
    sweep.add_argument("--optimize", default="balanced",
                       choices=sorted(_PRESETS))

    cachedb = sub.add_parser(
        "cachedb",
        help="precomputed design-space database: build, query, inspect",
    )
    cdb_sub = cachedb.add_subparsers(dest="cachedb_command", required=True)

    cdb_build = cdb_sub.add_parser(
        "build", help="precompute a design-space grid into a cachedb"
    )
    cdb_build.add_argument("path", help="cachedb to write (a solve store)")
    cdb_build.add_argument("--capacities", required=True,
                           metavar="C1,C2,...",
                           help="comma-separated capacities (K/M/G sizes)")
    cdb_build.add_argument("--assocs", default="8", metavar="A1,A2,...",
                           help="associativities; 0 for a plain RAM")
    cdb_build.add_argument("--blocks", default="64", metavar="B1,B2,...",
                           help="block sizes in bytes")
    cdb_build.add_argument("--nodes", default="32", metavar="N1,N2,...",
                           help="feature sizes in nm (32-90)")
    cdb_build.add_argument("--techs", default=None, metavar="T1,T2,...",
                           help="technology registry names "
                                "(default: every registered technology)")
    cdb_build.add_argument("--optimize", default="balanced",
                           choices=sorted(_PRESETS))

    cdb_query = cdb_sub.add_parser(
        "query", help="answer one design query from a cachedb"
    )
    cdb_query.add_argument("path", help="cachedb (from cachedb build)")
    cdb_query.add_argument("--capacity", required=True, type=_size_arg)
    cdb_query.add_argument("--assoc", type=int, default=8,
                           help="associativity; 0 for a plain RAM")
    cdb_query.add_argument("--block", type=_size_arg, default=64)
    cdb_query.add_argument("--node", type=float, default=32.0)
    cdb_query.add_argument("--tech", default="sram",
                           choices=sorted(registered_names()))
    cdb_query.add_argument("--fallback", default="solve",
                           choices=("solve", "error", "nearest"),
                           help="what to do when the grid cannot answer: "
                                "solve live, fail, or snap to the nearest "
                                "grid point")

    cdb_info = cdb_sub.add_parser(
        "info", help="summarize a cachedb (records per model version)"
    )
    cdb_info.add_argument("path", help="cachedb to inspect")

    # Every subcommand ultimately runs the same solver, so every
    # subcommand gets the same solver knobs and observability outputs;
    # a cachedb build writes into its own store, and a study's solves
    # are one memoized Table 3, so neither takes --cache.
    for solver in (cache, mm, validate, table3, sweep):
        solver.add_argument(
            "--cache", metavar="STORE", default=None, dest="cache_path",
            help="persistent solve store (a WAL-mode sqlite database); "
                 "repeated identical solves are served from it.  PATH "
                 "and 'sqlite:PATH' open the same store; "
                 "'sqlite:PATH?max_records=N' bounds it with LRU "
                 "eviction",
        )
    for solver in (cache, mm, validate, table3, study, sweep, cdb_build):
        solver.add_argument(
            "--stats", action="store_true",
            help="print optimizer sweep statistics (candidate counts, "
                 "cache hit rates, wall time)",
        )
        solver.add_argument(
            "--trace", metavar="FILE", default=None,
            help="write a Chrome trace-event JSON of the run "
                 "(open in chrome://tracing or Perfetto)",
        )
        solver.add_argument(
            "--metrics", metavar="FILE", default=None,
            help="write a JSON metrics snapshot of the run (counters, "
                 "gauges, latency histograms, cache hit rates)",
        )
    # Worker processes and fault tolerance pay off only where a run is
    # many independent tasks; a single solve runs in-process.
    for solver in (study, sweep, cdb_build):
        solver.add_argument(
            "--jobs", type=_jobs_arg, default="auto", metavar="N",
            help="worker processes for the run's tasks (1 = serial, "
                 "0 or 'auto' = all cores, never more than the tasks; "
                 "default auto); results are bit-identical at any "
                 "setting",
        )
        # Dense grids always contain infeasible corners; a build
        # records them as holes and keeps going.
        solver.add_argument(
            "--on-error", choices=ON_ERROR_POLICIES, dest="on_error",
            default="skip" if solver is cdb_build else "raise",
            help="task-failure policy: fail fast, skip the task "
                 "(recorded, run continues), or retry with backoff",
        )
        solver.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="retry attempts per task (with --on-error retry)",
        )
        solver.add_argument(
            "--task-timeout", type=float, default=None, metavar="SECONDS",
            dest="task_timeout",
            help="per-task wall-clock budget; overdue tasks are "
                 "cancelled (parallel runs only)",
        )
    # Solves checkpoint in their store; only the study's simulated
    # cells need a journal.
    study.add_argument(
        "--resume", metavar="PATH", default=None,
        help="checkpoint journal: finished cells are recorded here "
             "and restored on the next run with the same --resume",
    )
    return parser


def _run_obs(args: argparse.Namespace) -> Obs | None:
    """The run's telemetry sink, or None when nothing reads it.

    ``--stats``, ``--trace`` and ``--metrics`` all read the one sink;
    it records spans only when ``--trace`` asks for them.
    """
    if args.stats or args.trace or args.metrics:
        return Obs(trace=args.trace is not None)
    return None


def _solver_knobs(args: argparse.Namespace) -> tuple:
    """The optional solve cache and telemetry sink for a run."""
    solve_cache = (
        SolveCache(args.cache_path) if args.cache_path is not None else None
    )
    return solve_cache, _run_obs(args)


def _resilience_policy(args: argparse.Namespace) -> ResiliencePolicy | None:
    """A policy from the CLI flags, or None when every flag is default
    (the plain fail-fast engine, no journal)."""
    resume = getattr(args, "resume", None)
    if (args.on_error == "raise" and args.task_timeout is None
            and resume is None):
        return None
    return ResiliencePolicy(
        on_error=args.on_error,
        max_retries=args.retries,
        timeout_s=args.task_timeout,
        journal=Journal(resume) if resume is not None else None,
    )


def _print_stats(args: argparse.Namespace, obs: Obs | None) -> None:
    if args.stats:
        print()
        print(SweepStats(obs.metrics).summary())


def _write_obs(args: argparse.Namespace, obs: Obs | None) -> None:
    """Write the requested trace/metrics files after a successful run."""
    if obs is None:
        return
    if args.trace:
        obs.tracer.write_chrome(args.trace)
    if args.metrics:
        obs.metrics.write(args.metrics)


def _run_cache_store(args: argparse.Namespace) -> int:
    """Store maintenance: ``repro cache {info,gc}``."""
    from repro.core.solvecache import open_solve_store
    from repro.store import parse_store_url

    path, _ = parse_store_url(args.store)
    if not os.path.exists(path):
        raise ValueError(f"no solve store at {path}")
    store = open_solve_store(args.store)
    try:
        report = (store.info() if args.cache_command == "info"
                  else store.gc())
    finally:
        store.close()
    for key, value in report.items():
        print(f"{key:<20}: {value}")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    if args.cache_command is not None:
        return _run_cache_store(args)
    if args.capacity is None:
        raise ValueError(
            "--capacity is required to solve "
            "(store maintenance: repro cache {info,gc})"
        )
    spec = MemorySpec(
        capacity_bytes=args.capacity,
        block_bytes=args.block,
        associativity=args.assoc or None,
        nbanks=args.banks,
        node_nm=args.node,
        cell_tech=CellTech(args.tech),
        access_mode=(AccessMode.SEQUENTIAL if args.sequential
                     else AccessMode.NORMAL),
        sleep_transistors=args.sleep_transistors,
        tag_cell_tech=(
            CellTech(args.tag_tech) if args.tag_tech is not None else None
        ),
    )
    solve_cache, obs = _solver_knobs(args)
    cachedb = None
    if args.cachedb is not None:
        from repro.cachedb import CacheDB

        cachedb = CacheDB(args.cachedb, obs=obs)
    solution = solve(
        spec,
        _PRESETS[args.optimize],
        solve_cache=solve_cache,
        obs=obs,
        cachedb=cachedb,
    )
    print(solution.summary())
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _run_main_memory(args: argparse.Namespace) -> int:
    spec = MainMemorySpec(
        capacity_bits=args.capacity,
        nbanks=args.banks,
        data_pins=args.pins,
        burst_length=args.burst,
        page_bits=args.page,
    )
    solve_cache, obs = _solver_knobs(args)
    solution = solve_main_memory(
        spec,
        node_nm=args.node,
        solve_cache=solve_cache,
        obs=obs,
    )
    print(solution.summary())
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.validation.compare import validate_ddr3

    solve_cache, obs = _solver_knobs(args)
    validation = validate_ddr3(solve_cache=solve_cache, obs=obs)
    print(validation.report())
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _run_table3(args: argparse.Namespace) -> int:
    from repro.study.table3 import solve_table3

    solve_cache, obs = _solver_knobs(args)
    rows = solve_table3(solve_cache=solve_cache, obs=obs)
    for name, row in rows.items():
        cap = row.capacity_bytes
        cap_str = (f"{cap >> 20}MB" if cap >= 1 << 20 else f"{cap >> 10}KB")
        print(
            f"{name:<12}{cap_str:>8}  access={row.access_cycles} cyc  "
            f"cycle={row.cycle_cycles} cyc  area/bank={row.area_mm2:.2f} mm2 "
            f"leak={row.leakage_w:.3f} W  refresh={row.refresh_w:.4f} W  "
            f"E_rd={row.e_read_nj:.2f} nJ"
        )
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _print_failures(failed) -> None:
    if failed:
        print(f"warning: {len(failed)} task(s) failed:", file=sys.stderr)
        for failure in failed:
            print(f"  {failure}", file=sys.stderr)


def _run_study(args: argparse.Namespace) -> int:
    from repro.study.runner import run_study
    from repro.study.table3 import CONFIG_NAMES
    from repro.workloads.npb import NPB_PROFILES

    profiles = NPB_PROFILES
    if args.apps is not None:
        wanted = [a.strip() for a in args.apps.split(",") if a.strip()]
        known = {p.name: p for p in NPB_PROFILES}
        missing = [a for a in wanted if a not in known]
        if missing:
            raise ValueError(
                f"unknown app(s) {missing}; choose from {sorted(known)}"
            )
        profiles = tuple(known[a] for a in wanted)
    configs = CONFIG_NAMES
    if args.configs is not None:
        configs = tuple(
            c.strip() for c in args.configs.split(",") if c.strip()
        )
        unknown = [c for c in configs if c not in CONFIG_NAMES]
        if unknown:
            raise ValueError(
                f"unknown configuration(s) {unknown}; "
                f"choose from {list(CONFIG_NAMES)}"
            )
    obs = _run_obs(args)
    result = run_study(
        profiles=profiles,
        configs=configs,
        source=args.source,
        scale=args.scale,
        instructions_per_thread=args.instructions,
        seed=args.seed,
        jobs=args.jobs,
        obs=obs,
        resilience=_resilience_policy(args),
        cachedb=args.cachedb,
    )
    header = "app".ljust(10) + "".join(c.rjust(12) for c in configs)
    print(header)
    for app in result.app_names:
        cells = []
        for config in configs:
            run = result.results.get((app, config))
            cells.append("-".rjust(12) if run is None
                         else f"{run.ipc:.3f}".rjust(12))
        print(app.ljust(10) + "".join(cells))
    if "nol3" in configs and not result.failed:
        for config in configs:
            if config == "nol3":
                continue
            print(
                f"{config:<12} execution reduction "
                f"{result.mean_execution_reduction(config) * 100:+5.1f}%  "
                "energy-delay improvement "
                f"{result.mean_energy_delay_improvement(config) * 100:+5.1f}%"
            )
    _print_failures(result.failed)
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.study.sensitivity import SWEEPABLE, sweep

    if args.parameter not in SWEEPABLE:
        raise ValueError(
            f"cannot sweep {args.parameter!r}; choose one of {SWEEPABLE}"
        )
    raw = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw:
        raise ValueError("--values needs at least one value")
    if args.parameter in ("capacity_bytes", "block_bytes"):
        values = [parse_size(v) for v in raw]
    elif args.parameter == "node_nm":
        values = [float(v) for v in raw]
    elif args.parameter == "cell_tech":
        # Categorical: values are technology registry names.  CellTech
        # rejects unknown names here with the registered list, before
        # any solving starts.
        values = [CellTech(v).value for v in raw]
    else:
        values = [int(v) for v in raw]
    if args.parameter == "nbanks" and min(values) < 1:
        # A bank count below one is a malformed request, not a design
        # point the sweep could report as infeasible.
        raise ValueError(f"nbanks must be >= 1, got {min(values)}")
    base = MemorySpec(
        capacity_bytes=args.capacity,
        block_bytes=args.block,
        associativity=args.assoc or None,
        nbanks=args.banks,
        node_nm=args.node,
        cell_tech=CellTech(args.tech),
    )
    solve_cache, obs = _solver_knobs(args)
    result = sweep(
        base,
        args.parameter,
        values,
        _PRESETS[args.optimize],
        solve_cache=solve_cache,
        jobs=args.jobs,
        obs=obs,
        resilience=_resilience_policy(args),
    )
    for point in result.points:
        # Numeric sweep values print as numbers; categorical ones
        # (cell_tech registry names) are already strings.
        value = (f"{point.value:g}" if isinstance(point.value, float)
                 else str(point.value))
        if point.solution is None:
            print(f"{value:>14}  infeasible")
            continue
        s = point.solution
        print(
            f"{value:>14}  access={s.access_time * 1e9:.3f} ns  "
            f"E_rd={s.e_read_nj:.3f} nJ  area={s.area_mm2:.2f} mm2  "
            f"eff={s.area_efficiency * 100:.1f}%"
        )
    print()
    print(result.report())
    _print_failures(result.failed)
    _print_stats(args, obs)
    _write_obs(args, obs)
    return 0


def _split_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _run_cachedb(args: argparse.Namespace) -> int:
    from repro.cachedb import CacheDB, GridSpec, build_cachedb

    if args.cachedb_command == "build":
        grid = GridSpec(
            capacities_bytes=tuple(
                parse_size(v) for v in _split_list(args.capacities)
            ),
            associativities=tuple(
                int(v) for v in _split_list(args.assocs)
            ),
            block_bytes=tuple(
                parse_size(v) for v in _split_list(args.blocks)
            ),
            nodes_nm=tuple(float(v) for v in _split_list(args.nodes)),
            technologies=(
                tuple(_split_list(args.techs))
                if args.techs is not None
                else ()
            ),
        )
        obs = _run_obs(args)
        report = build_cachedb(
            args.path,
            grid,
            target=_PRESETS[args.optimize],
            jobs=args.jobs,
            resilience=_resilience_policy(args),
            obs=obs,
        )
        print(report.summary())
        _print_stats(args, obs)
        _write_obs(args, obs)
        return 0

    db = CacheDB(args.path)
    if args.cachedb_command == "query":
        result = db.query(
            args.capacity,
            associativity=args.assoc,
            block_bytes=args.block,
            node_nm=args.node,
            cell_tech=args.tech,
            fallback=args.fallback,
        )
        print(result.summary())
        return 0

    for key, value in db.info().items():
        print(f"{key:<14}: {value}")
    return 0


_HANDLERS = {
    "cache": _run_cache,
    "main-memory": _run_main_memory,
    "validate-ddr3": _run_validate,
    "table3": _run_table3,
    "study": _run_study,
    "sweep": _run_sweep,
    "cachedb": _run_cachedb,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, NoFeasibleSolution, OSError) as exc:
        # NoFeasibleSolution subclasses RuntimeError, not ValueError: an
        # infeasible request must still exit cleanly, not dump a traceback.
        # OSError covers an unwritable --cache path.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
