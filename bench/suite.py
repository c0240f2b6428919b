"""The benchmark's four workloads.

Each workload turns a seed into a fixed request list, replays it as one
timed pass, checks every output, and -- for the traced run -- replays it
once more with per-layer instrumentation.  Every layer is measured from
outside: by timing calls into its public functions, by wrapping methods
on the instances the benchmark itself creates, and by reading the
program's own ``obs=`` spans and counters.  Nothing under ``src/`` is
modified.

All workloads are closed loops with one caller at ``jobs=1``: the next
request is sent when the previous one returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cachedb import CacheDB, GridSpec, build_cachedb  # noqa: E402
from repro.cachedb.schema import grid_spec_for, solution_to_record  # noqa: E402
from repro.core.cacti import solve  # noqa: E402
from repro.core.config import MemorySpec  # noqa: E402
from repro.core.optimizer import NoFeasibleSolution  # noqa: E402
from repro.core.solvecache import SolveCache  # noqa: E402
from repro.obs import Obs  # noqa: E402
from repro.power.hierarchy import hierarchy_power  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.study.runner import run_study  # noqa: E402
from repro.study.table3 import (  # noqa: E402
    CPU_HZ,
    build_energy_model,
    build_system_config,
)
from repro.workloads.npb import BY_NAME  # noqa: E402
from repro.workloads.synthetic import event_stream  # noqa: E402

#: The seed the recorded expected outputs were captured at.
DEFAULT_SEED = 1

#: Environment for child interpreters: the package straight from the tree.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclasses.dataclass
class Pass:
    """One replay of a workload's request list."""

    latencies: list[float]  #: seconds per request, in request order
    outputs: list  #: one comparable output per request
    failures: list[str] = dataclasses.field(default_factory=list)
    layers: dict = dataclasses.field(default_factory=dict)  #: traced only
    wall_s: float = 0.0  #: the whole pass, as the caller timed it


def digest(solution) -> str:
    """A short hash of a solution's bit-exact record."""
    record = json.dumps(solution_to_record(solution), sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def load_expected(name: str):
    return json.loads((EXPECTED / name).read_text())


class Meter:
    """Call count and busy time of one wrapped method."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


def wrap(obj, method: str, meter: Meter, timed: bool = True) -> None:
    """Shadow ``obj.method`` with an instance attribute that feeds ``meter``."""
    inner = getattr(obj, method)
    if timed:
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                meter.seconds += time.perf_counter() - t0
                meter.calls += 1
    else:
        def wrapper(*args, **kwargs):
            meter.calls += 1
            return inner(*args, **kwargs)
    setattr(obj, method, wrapper)


def wrapper_overhead(calls: int = 50_000, trials: int = 5) -> dict:
    """Per-call cost of :func:`wrap`'s wrappers, over that of the call
    they wrap: ``timed.outer`` and ``counted.outer`` as the caller sees
    it, ``timed.inner`` as the timed wrapper's own meter sees it.
    Median of ``trials`` timings of a wrapped no-op taking two arguments,
    as the simulator's wrapped methods take two or three."""
    class Target:
        def noop(self, a, b):
            pass

    def loop(obj) -> float:
        t0 = time.perf_counter()
        for k in range(calls):
            obj.noop(k, True)
        return time.perf_counter() - t0

    found: dict[str, list[float]] = {
        "timed.outer": [], "timed.inner": [], "counted.outer": []}
    for _ in range(trials):
        base = loop(Target())
        timed, meter = Target(), Meter()
        wrap(timed, "noop", meter)
        found["timed.outer"].append((loop(timed) - base) / calls)
        found["timed.inner"].append((meter.seconds - base) / calls)
        counted = Target()
        wrap(counted, "noop", Meter(), timed=False)
        found["counted.outer"].append((loop(counted) - base) / calls)
    return {k: max(0.0, statistics.median(v)) for k, v in found.items()}


def core_layers(counters: dict, spans: list[tuple[str, float]],
                infeasible: int = 0) -> dict:
    """``core.*`` metrics from an ``Obs`` metrics snapshot and its spans.

    The counters are the ones :class:`~repro.core.optimizer.SweepStats`
    mirrors; ``spans`` is ``(name, seconds)`` pairs; ``infeasible``
    counts solves that raised ``NoFeasibleSolution``.
    """
    def span_s(*names):
        return sum(s for n, s in spans if n in names)

    def rate(hits, misses):
        total = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / total if total else 0.0

    enumerated = counters.get("optimizer.enumerated", 0)
    return {
        "core.solve.calls": sum(
            1 for n, _ in spans if n in ("solve", "solve_main_memory")
        ),
        "core.solve.infeasible": infeasible,
        "core.solve_s": span_s("solve", "solve_main_memory"),
        "core.prefilter_s": span_s("prefilter"),
        "core.build_s": span_s("build"),
        "core.rank_s": span_s("rank"),
        "core.enumerated": enumerated,
        "core.feasible": counters.get("optimizer.feasible", 0),
        "core.prefilter_rate": (
            counters.get("optimizer.prefiltered", 0) / enumerated
            if enumerated else 0.0
        ),
        "core.subarray_hit_rate": rate(
            "eval_cache.subarray.hits", "eval_cache.subarray.misses"
        ),
        "core.htree_hit_rate": rate(
            "eval_cache.htree.hits", "eval_cache.htree.misses"
        ),
    }


def obs_layers(obs: Obs, infeasible: int = 0) -> dict:
    counters = obs.metrics.snapshot()["counters"]
    spans = [(s.name, s.duration_s) for s in obs.tracer.spans]
    return core_layers(counters, spans, infeasible)


class Workload:
    """What every workload provides beyond its own passes."""

    #: Layer prefixes of the per-layer metrics this workload exercises;
    #: the others read 0 on it.
    layers: tuple[str, ...] = ()

    def final_layers(self, state: dict) -> dict:
        """Per-layer metrics measured once per run (set-up work)."""
        return {}

    def check(self, state: dict, passes: list[Pass]) -> list[str]:
        """Checks beyond pass-to-pass identity, one message per failure."""
        return []


# --------------------------------------------------------------------- #
# cli-cold


class CliCold(Workload):
    """Fresh ``python -m repro`` processes, cycling through five commands.

    What a CLI user pays per call: interpreter start and imports are
    most of it, so this is the workload that shows import and set-up
    changes.  The simulator never runs.  The seed is not used: the
    commands are fixed.
    """

    name = "cli-cold"
    layers = ("cli", "core", "validation")
    commands = {
        "cache-2m": ["cache", "--capacity", "2M", "--assoc", "8"],
        "cache-192m": ["cache", "--capacity", "192M", "--assoc", "32",
                       "--banks", "8", "--tech", "comm-dram"],
        "main-memory": ["main-memory", "--capacity", "8G"],
        "table3": ["table3"],
        "validate-ddr3": ["validate-ddr3"],
    }
    #: Runs in the traced child: times the import and ``main`` apart.
    probe = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "import repro.cli\n"
        "t1 = time.perf_counter()\n"
        "rc = repro.cli.main(sys.argv[1:])\n"
        "t2 = time.perf_counter()\n"
        "sys.stdout.flush()\n"
        "print(json.dumps({'import_s': t1 - t0, 'main_s': t2 - t1}),"
        " file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )

    def sizes(self) -> dict:
        return {"requests_per_pass": len(self.commands)}

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"workdir": workdir}

    def _call(self, label: str, argv: list[str], workdir: Path):
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, env=CHILD_ENV, cwd=workdir, capture_output=True,
            text=True, timeout=120,
        )
        latency = time.perf_counter() - t0
        failure = None
        if proc.returncode != 0:
            failure = f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}"
        elif proc.stdout != (EXPECTED / "cli" / f"{label}.txt").read_text():
            failure = f"{label}: stdout differs from expected/cli/{label}.txt"
        return latency, proc, failure

    def run_pass(self, state: dict) -> Pass:
        out = Pass([], [])
        for label, args in self.commands.items():
            latency, _proc, failure = self._call(
                label, [sys.executable, "-m", "repro", *args],
                state["workdir"],
            )
            out.latencies.append(latency)
            out.outputs.append(label)
            if failure:
                out.failures.append(failure)
        return out

    def traced_pass(self, state: dict, untraced: Pass) -> Pass:
        out = Pass([], [])
        workdir = state["workdir"]
        imports = []
        counters: dict = {}
        spans = []
        for label, args in self.commands.items():
            trace_file = workdir / f"{label}.trace.json"
            metrics_file = workdir / f"{label}.metrics.json"
            latency, proc, failure = self._call(
                label,
                [sys.executable, "-c", self.probe, *args,
                 "--trace", str(trace_file), "--metrics", str(metrics_file)],
                workdir,
            )
            out.latencies.append(latency)
            out.outputs.append(label)
            if failure:
                out.failures.append(failure)
                continue
            timing = json.loads(proc.stderr.strip().splitlines()[-1])
            imports.append(timing["import_s"])
            out.layers[f"cli.main_s.{label}"] = timing["main_s"]
            events = json.loads(trace_file.read_text())["traceEvents"]
            spans += [(e["name"], e["dur"] / 1e6) for e in events]
            snapshot = json.loads(metrics_file.read_text())
            for name, value in snapshot["counters"].items():
                counters[name] = counters.get(name, 0) + value
        out.layers["cli.import_s"] = statistics.median(imports or [0.0])
        out.layers.update(core_layers(counters, spans))
        return out

    def final_layers(self, state: dict) -> dict:
        from repro.validation.compare import validate_ddr3

        return {
            "validation.ddr3_mean_abs_err_pct":
                validate_ddr3().mean_abs_error * 100,
        }


# --------------------------------------------------------------------- #
# solve-sweep


class SolveSweep(Workload):
    """Independent solves over the technology x node x capacity x
    associativity space, each with a fresh ``EvalCache``.

    Only the solver runs (prefilter, build and rank kernels); no store,
    cachedb or simulator.  Each (technology, capacity) pair gets every
    node and every associativity exactly once, with the seed choosing
    which node goes with which associativity, so every seed has the same
    mix of array sizes and the same infeasible specs.
    """

    name = "solve-sweep"
    layers = ("core",)
    technologies = ("sram", "lp-dram", "comm-dram", "stt-ram")
    nodes = (32.0, 45.0, 65.0, 90.0)
    capacities = tuple((32 << 10) << k for k in range(13))  # 32K..128M
    associativities = (0, 4, 8, 16)  # 0 = plain RAM

    def specs(self, seed: int) -> list[MemorySpec]:
        rng = random.Random(seed)
        specs = []
        for tech in self.technologies:
            for capacity in self.capacities:
                nodes = list(self.nodes)
                rng.shuffle(nodes)
                for node, assoc in zip(nodes, self.associativities):
                    specs.append(MemorySpec(
                        capacity_bytes=capacity,
                        associativity=assoc or None,
                        node_nm=node,
                        cell_tech=tech,
                    ))
        rng.shuffle(specs)
        return specs

    def sizes(self) -> dict:
        return {"requests_per_pass": len(self.technologies)
                * len(self.capacities) * len(self.associativities)}

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"specs": self.specs(seed)}

    def _pass(self, specs, obs=None) -> Pass:
        out = Pass([], [])
        for spec in specs:
            solution = error = None
            t0 = time.perf_counter()
            try:
                solution = solve(spec, obs=obs)
            except NoFeasibleSolution:
                pass
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                error = f"{spec}: {type(exc).__name__}: {exc}"
            out.latencies.append(time.perf_counter() - t0)
            if error is not None:
                out.failures.append(error)
                out.outputs.append(None)
            else:
                out.outputs.append("infeasible" if solution is None
                                   else digest(solution))
        return out

    def run_pass(self, state: dict) -> Pass:
        return self._pass(state["specs"])

    def traced_pass(self, state: dict, untraced: Pass) -> Pass:
        obs = Obs()
        out = self._pass(state["specs"], obs=obs)
        out.layers = obs_layers(obs, out.outputs.count("infeasible"))
        return out

    def check(self, state: dict, passes: list[Pass]) -> list[str]:
        expected = load_expected("solve-sweep.json")
        outputs = passes[0].outputs
        problems = []
        if outputs.count("infeasible") != expected["infeasible_per_pass"]:
            problems.append(
                f"{outputs.count('infeasible')} infeasible specs, expected "
                f"{expected['infeasible_per_pass']}"
            )
        if state["seed"] == DEFAULT_SEED:
            problems += [
                f"spec {i}: digest {got} != expected {want}"
                for i, (got, want) in enumerate(
                    zip(outputs, expected["digests"])
                )
                if got != want
            ]
        return problems


# --------------------------------------------------------------------- #
# study-llc


class StudyLlc(Workload):
    """The LLC study matrix through ``run_study(source="cacti")``.

    The simulator does most of the work.  The four apps cover the four
    behaviour classes of ``repro.workloads.npb`` (L3-capacity fit,
    streaming with no locality, write-heavy with skew, L3-insensitive
    with locks); the three configurations cover no L3, a single-subbank
    SRAM L3 and the multisubbank COMM-DRAM L3.  The solver runs only
    during set-up.  The modelled caches start empty.  One matrix (one
    pass) takes about 26 s on a 2-vCPU Xeon.
    """

    name = "study-llc"
    layers = ("study", "workloads", "sim", "power")
    apps = ("ft.B", "cg.C", "is.C", "ua.C")
    configs = ("nol3", "sram", "cm_dram_c")
    scale = 16
    instructions_per_thread = 40_000
    #: Simulator components whose wrapped calls are timed; the others
    #: are only counted (invalidations also run inside coherence calls,
    #: so timing them would make busy times overlap).
    timed = ("cache.access", "cache.fill", "coherence", "dram_channel")

    def sizes(self) -> dict:
        return {
            "requests_per_pass": len(self.apps) * len(self.configs),
            "instructions_per_thread": self.instructions_per_thread,
            "scale": self.scale,
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        t0 = time.perf_counter()
        built = {
            name: (
                build_system_config(name, source="cacti", scale=self.scale),
                build_energy_model(name, source="cacti"),
            )
            for name in self.configs
        }
        return {
            "built": built,
            "profiles": tuple(
                BY_NAME[a].with_instructions(self.instructions_per_thread)
                for a in self.apps
            ),
            "config_s": time.perf_counter() - t0,
        }

    def _study(self, state: dict):
        obs = Obs()
        result = run_study(
            profiles=state["profiles"], configs=self.configs,
            source="cacti", scale=self.scale, seed=state["seed"], jobs=1,
            obs=obs,
        )
        cells = sorted(
            (s for s in obs.tracer.spans if s.name == "study.cell"),
            key=lambda s: s.attrs["index"],
        )
        return result, [s.duration_s for s in cells]

    def run_pass(self, state: dict) -> Pass:
        result, cell_s = self._study(state)
        return Pass(cell_s, [
            dataclasses.asdict(result.get(p.name, c).stats)
            for p in state["profiles"] for c in self.configs
        ])

    def _traced_cell(self, state, profile, config_name, overhead: dict):
        """One cell from the public calls ``run_study`` makes, timed apart:
        materialised event streams, ``System(config).run`` with its
        components wrapped, power.  ``sim_s`` and ``cell_s`` have the
        wrappers' calibrated cost taken out; ``raw_s`` keeps it."""
        config, energy_model = state["built"][config_name]
        scaled = profile.scaled(self.scale)
        t0 = time.perf_counter()
        streams = [
            list(event_stream(scaled, i, num_threads=config.num_threads,
                              seed=state["seed"]))
            for i in range(config.num_threads)
        ]
        t1 = time.perf_counter()
        system = System(config)
        meters = self._wrap_system(system)
        stats = system.run(streams)
        t2 = time.perf_counter()
        hierarchy_power(energy_model, stats, stats.cycles / CPU_HZ)
        t3 = time.perf_counter()
        wrappers_s = sum(
            m.calls * overhead["timed.outer" if name in self.timed
                               else "counted.outer"]
            for name, m in meters.items()
        )
        return {
            "stats": stats, "system": system, "meters": meters,
            "events": sum(len(s) for s in streams),
            "gen_s": t1 - t0, "sim_s": t2 - t1 - wrappers_s,
            "power_s": t3 - t2, "cell_s": t3 - t0 - wrappers_s,
            "raw_s": t3 - t0,
        }

    @staticmethod
    def _wrap_system(system: System) -> dict:
        meters = {name: Meter() for name in (
            "cache.access", "cache.fill", "cache.invalidate", "coherence",
            "dram_channel", "interconnect",
        )}
        caches = [*system.l1s, *system.l2s]
        if system.l3 is not None:
            caches.append(system.l3)
        for cache in caches:
            wrap(cache, "access", meters["cache.access"])
            wrap(cache, "fill", meters["cache.fill"])
            wrap(cache, "invalidate", meters["cache.invalidate"], timed=False)
        wrap(system.directory, "read", meters["coherence"])
        wrap(system.directory, "write", meters["coherence"])
        wrap(system.memory, "access", meters["dram_channel"])
        wrap(system.crossbar, "traverse", meters["interconnect"], timed=False)
        return meters

    def traced_pass(self, state: dict, untraced: Pass) -> Pass:
        """The matrix once more, cell by cell, with each stage timed and
        the simulator's components wrapped.  The wrappers' own cost,
        calibrated on a no-op, is taken out of the stage and component
        times; the pass's latencies keep it, so ``trace.overhead_frac``
        shows it."""
        overhead = wrapper_overhead()
        cells = [self._traced_cell(state, p, c, overhead)
                 for p in state["profiles"] for c in self.configs]
        out = Pass([c["raw_s"] for c in cells],
                   [dataclasses.asdict(c["stats"]) for c in cells])
        total = lambda key: sum(c[key] for c in cells)  # noqa: E731
        refs = sum(c["stats"].counters.l1_reads + c["stats"].counters.l1_writes
                   for c in cells)
        instructions = [c["stats"].instructions for c in cells]
        layers = {
            "study.wall_s": untraced.wall_s,
            "study.cell_s.max": max(untraced.latencies),
            "study.kips": statistics.median(
                n / 1e3 / s for n, s in zip(instructions, untraced.latencies)
            ),
            "workloads.events": total("events"),
            "workloads.gen_s": total("gen_s"),
            "sim.run_s": total("sim_s"),
            "sim.refs": refs,
            "sim.us_per_ref": total("sim_s") / refs * 1e6,
            "sim.share": total("sim_s") / total("cell_s"),
            "power.calls": len(cells),
            "power.hierarchy_s": total("power_s"),
        }
        meters: dict[str, Meter] = {}
        for cell in cells:
            for name, meter in cell["meters"].items():
                acc = meters.setdefault(name, Meter())
                acc.calls += meter.calls
                acc.seconds += meter.seconds
        busy = 0.0
        for name, meter in meters.items():
            layers[f"sim.{name}.calls"] = meter.calls
            if name in self.timed:
                seconds = meter.seconds - meter.calls * overhead["timed.inner"]
                layers[f"sim.{name}_s"] = seconds
                busy += seconds
        layers["sim.run.self_s"] = total("sim_s") - busy
        layers.update(self._modelled(cells))
        out.layers = layers
        return out

    @staticmethod
    def _modelled(cells: list[dict]) -> dict:
        """Simulated-hardware statistics: identical on every commit that
        does not change the model."""
        def ratio(num, den):
            return num / den if den else 0.0

        def cache_rate(caches, want_hits):
            hits = sum(c.hits for c in caches)
            misses = sum(c.misses for c in caches)
            return ratio(hits if want_hits else misses, hits + misses)

        systems = [c["system"] for c in cells]
        stats = [c["stats"] for c in cells]
        memory = [s.memory.stats for s in systems]
        return {
            "sim.ipc": statistics.mean(s.ipc for s in stats),
            "sim.l1_miss_rate": cache_rate(
                [c for s in systems for c in s.l1s], False),
            "sim.l2_miss_rate": cache_rate(
                [c for s in systems for c in s.l2s], False),
            "sim.l3_hit_rate": cache_rate(
                [s.l3 for s in systems if s.l3 is not None], True),
            "sim.coherence_invalidations": sum(
                s.counters.coherence_invalidations for s in stats),
            "sim.dram_row_hit_rate": ratio(
                sum(m.row_hits for m in memory),
                sum(m.reads + m.writes for m in memory)),
            "sim.mem_activates": sum(m.activates for m in memory),
            "sim.barrier_frac": ratio(
                sum(s.breakdown.barrier for s in stats),
                sum(s.breakdown.total for s in stats)),
            "sim.lock_frac": ratio(
                sum(s.breakdown.lock for s in stats),
                sum(s.breakdown.total for s in stats)),
        }

    def final_layers(self, state: dict) -> dict:
        return {"study.config_s": state["config_s"]}

    def check(self, state: dict, passes: list[Pass]) -> list[str]:
        if state["seed"] != DEFAULT_SEED:
            return []
        expected = load_expected("study-llc.json")["cells"]
        return [
            f"{want['app']} x {want['config']}: SimStats differ from "
            "expected/study-llc.json"
            for got, want in zip(passes[0].outputs, expected)
            if got != want["stats"]
        ]


# --------------------------------------------------------------------- #
# cached-solve


class CachedSolve(Workload):
    """Solves served by a cachedb and a sqlite solve store, beside live
    solves that write to the store.

    30% of requests are on the cachedb grid (exact hits).  The rest come
    from a pool of off-grid specs with Pareto-skewed popularity; a pool
    spec's first request in a pass misses, solves live and writes the
    store, and its later requests are store hits.  Every pass starts
    from an empty store.  The 300 pool specs are spread evenly over the
    (technology, capacity) pairs, the same way at every seed, and every
    pool spec is requested at least once per pass: 300 live solves per
    pass at every seed.  Pure Pareto draws would leave about a tenth of
    the pool unrequested, a share that varies with the seed and would
    move the pass time with it.  The store hits keep the skew.
    """

    name = "cached-solve"
    layers = ("core", "store", "cachedb")
    grid = GridSpec(
        capacities_bytes=tuple((64 << 10) << k for k in range(9)),  # 64K..16M
        associativities=(8,),
        nodes_nm=(32.0, 45.0, 65.0),
        technologies=("sram", "lp-dram"),
    )
    pool_technologies = ("sram", "lp-dram", "comm-dram", "stt-ram")
    pool_nodes = (32.0, 45.0, 65.0, 90.0)
    pool_assocs = (4, 8, 16)
    pool_banks = (1, 2, 4, 8)
    pool_size = 300
    requests_per_pass = 4000
    grid_share = 0.3

    def pool(self, rng: random.Random) -> list[MemorySpec]:
        strata = [(tech, capacity) for tech in self.pool_technologies
                  for capacity in self.grid.capacities_bytes]
        specs = []
        for k, (tech, capacity) in enumerate(strata):
            shapes = [
                (node, assoc, banks)
                for node in self.pool_nodes
                for assoc in self.pool_assocs
                for banks in self.pool_banks
                if not (tech in self.grid.technologies
                        and node in self.grid.nodes_nm
                        and assoc in self.grid.associativities
                        and banks == 1)
            ]
            count = len(range(k, self.pool_size, len(strata)))
            for node, assoc, banks in rng.sample(shapes, count):
                specs.append(MemorySpec(
                    capacity_bytes=capacity, associativity=assoc,
                    nbanks=banks, node_nm=node, cell_tech=tech,
                ))
        return specs

    def requests(self, seed: int) -> tuple[list[MemorySpec], list[str]]:
        """The request list and each request's expected outcome:
        ``grid`` (cachedb hit), ``miss`` (live solve) or ``hit`` (store)."""
        rng = random.Random(seed)
        pool = self.pool(rng)
        grid = [grid_spec_for(*coords) for _key, coords in self.grid.points()]
        n_grid = round(self.requests_per_pass * self.grid_share)
        weights = [rng.paretovariate(1.16) for _ in pool]
        picks = pool + rng.choices(
            pool, weights, k=self.requests_per_pass - n_grid - len(pool)
        )
        picks += [rng.choice(grid) for _ in range(n_grid)]
        rng.shuffle(picks)
        on_grid = set(grid)
        seen = set()
        kinds = []
        for spec in picks:
            if spec in on_grid:
                kinds.append("grid")
            else:
                kinds.append("hit" if spec in seen else "miss")
                seen.add(spec)
        return picks, kinds

    def sizes(self) -> dict:
        return {
            "requests_per_pass": self.requests_per_pass,
            "pool_specs": self.pool_size,
            "grid_cells": len(self.grid),
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        db_path = workdir / "grid.cachedb.json"
        report = build_cachedb(db_path, self.grid, jobs=1)
        specs, kinds = self.requests(seed)
        # The store the first pass starts from, as set-up opens it.
        store = self._open_store(workdir, 0)
        return {
            "workdir": workdir, "db": CacheDB(db_path), "db_path": db_path,
            "build": report, "specs": specs, "kinds": kinds, "store": store,
            "passes": 0,
        }

    @staticmethod
    def _open_store(workdir: Path, index: int) -> SolveCache:
        path = workdir / f"store-{index}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        return SolveCache(f"sqlite:{path}")

    def _pass(self, state: dict, db: CacheDB, store: SolveCache,
              obs=None) -> Pass:
        out = Pass([], [])
        for spec, kind in zip(state["specs"], state["kinds"]):
            misses, db_hits = store.misses, db.hits
            t0 = time.perf_counter()
            try:
                solution = solve(spec, solve_cache=store, cachedb=db,
                                 obs=obs)
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                out.latencies.append(time.perf_counter() - t0)
                out.outputs.append(None)
                out.failures.append(f"{spec}: {type(exc).__name__}: {exc}")
                continue
            out.latencies.append(time.perf_counter() - t0)
            served = ("grid" if db.hits > db_hits
                      else "miss" if store.misses > misses else "hit")
            out.outputs.append(digest(solution))
            if served != kind:
                out.failures.append(f"{spec}: served as {served}, "
                                    f"expected {kind}")
        return out

    def _next_store(self, state: dict) -> SolveCache:
        store = state.pop("store", None)
        if store is None:
            store = self._open_store(state["workdir"], state["passes"])
        state["passes"] += 1
        return store

    def run_pass(self, state: dict) -> Pass:
        store = self._next_store(state)
        out = self._pass(state, state["db"], store)
        store.close()
        return out

    def traced_pass(self, state: dict, untraced: Pass) -> Pass:
        db = CacheDB(state["db_path"])
        lookup = Meter()
        wrap(db, "lookup_exact", lookup)
        store = self._next_store(state)
        meters = {name: Meter() for name in ("get", "put", "flush")}
        for name, meter in meters.items():
            wrap(store.store, name, meter)
        obs = Obs()
        out = self._pass(state, db, store, obs=obs)
        stats = store.stats()
        looked_up = store.hits + store.misses
        out.layers = obs_layers(obs)
        out.layers.update({
            "store.get.calls": meters["get"].calls,
            "store.get_s": meters["get"].seconds,
            "store.put.calls": meters["put"].calls,
            "store.flush.calls": meters["flush"].calls,
            "store.flush_s": meters["flush"].seconds,
            "store.flush_writes": stats["flush_writes"],
            "store.hit_rate": store.hits / looked_up if looked_up else 0.0,
            "store.bytes_on_disk": stats["bytes_on_disk"],
            "cachedb.lookup.calls": lookup.calls,
            "cachedb.lookup.hits": db.hits,
            "cachedb.lookup_s": lookup.seconds,
        })
        store.close()
        return out

    def final_layers(self, state: dict) -> dict:
        report = state["build"]
        return {
            "cachedb.build_s": report.wall_time_s,
            "cachedb.build.cells": report.solved,
            "cachedb.build.holes": report.holes,
        }

    def check(self, state: dict, passes: list[Pass]) -> list[str]:
        """Every served solution equals a live solve of its spec.

        A pool spec's first request in a pass is the live solve its
        later store hits must match; grid specs are solved live here,
        outside the timed passes.
        """
        live: dict = {}
        problems = []
        for spec, kind, output in zip(
            state["specs"], state["kinds"], passes[0].outputs
        ):
            if kind == "grid" and spec not in live:
                live[spec] = digest(solve(spec))
            elif kind == "miss":
                live[spec] = output
            if output is not None and output != live[spec]:
                problems.append(f"{spec}: served solution differs from a "
                                "live solve")
        return problems


WORKLOADS = {w.name: w for w in (CliCold(), SolveSweep(), StudyLlc(),
                                 CachedSolve())}


def setup_child(name: str, seed: int) -> None:
    """Entry point of a set-up child: a fresh interpreter's set-up."""
    workdir = make_workdir(name)
    try:
        WORKLOADS[name].setup(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def make_workdir(name: str) -> Path:
    """A working directory inside the benchmark's tree, one per process."""
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def record_expected() -> None:
    """Re-record ``bench/expected/`` at the default seed.

    Only for a change meant to alter the program's output; a change
    meant only to speed it up must pass against the recorded files.
    """
    workdir = make_workdir("record")
    try:
        cli = WORKLOADS["cli-cold"]
        (EXPECTED / "cli").mkdir(parents=True, exist_ok=True)
        for label, args in cli.commands.items():
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *args], env=CHILD_ENV,
                cwd=workdir, capture_output=True, text=True, check=True,
            )
            (EXPECTED / "cli" / f"{label}.txt").write_text(proc.stdout)

        sweep = WORKLOADS["solve-sweep"]
        outputs = sweep.run_pass(
            sweep.setup(DEFAULT_SEED, workdir)
        ).outputs
        (EXPECTED / "solve-sweep.json").write_text(json.dumps({
            "seed": DEFAULT_SEED,
            "infeasible_per_pass": outputs.count("infeasible"),
            "digests": outputs,
        }, indent=1) + "\n")

        study = WORKLOADS["study-llc"]
        state = study.setup(DEFAULT_SEED, workdir)
        state["seed"] = DEFAULT_SEED
        cells = [
            {"app": p.name, "config": c}
            for p in state["profiles"] for c in study.configs
        ]
        for cell, stats in zip(cells, study.run_pass(state).outputs):
            cell["stats"] = stats
        (EXPECTED / "study-llc.json").write_text(json.dumps({
            "seed": DEFAULT_SEED,
            "instructions_per_thread": study.instructions_per_thread,
            "cells": cells,
        }, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    record_expected()
