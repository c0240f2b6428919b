"""Cold-start guard: a plain CLI call loads only what it runs.

A CLI process is mostly interpreter start and imports, so modules that
a plain solve never uses stay out of it: OpenSSL (``hashlib``, needed
only to hash store keys), ``sqlite3`` (needed only by the sqlite
store, so never by a study without ``--cache``), the process-pool
stack (needed only when a map builds a pool -- never at ``jobs=1``,
study and cachedb build included) and
``numpy.ma`` (which numpy 2's plain ``np.unique``
imports).  Each test runs in a fresh interpreter, because this test
process has long since imported all of them.

Production never reaches the test suite's reference oracles: no module
under ``src/repro`` imports from ``tests``, and a plain CLI call loads
no ``tests.*`` module.

A subpackage's ``__init__`` re-exports nothing (only ``repro``,
``repro.cachedb`` and ``repro.obs`` have a package API), so importing
one module of a subpackage loads no sibling it does not use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no plain ``cache``, ``main-memory`` or ``table3`` call loads.
DENY = (
    "hashlib",
    "_hashlib",
    "sqlite3",
    "_sqlite3",
    "multiprocessing",
    "concurrent.futures.process",
    "socket",
    "numpy.ma",
    "repro.array.stacking",
)

_PLAIN = """
import contextlib, io, json, sys
import repro.cli

for argv in (
    ["cache", "--capacity", "64K", "--assoc", "8"],
    ["main-memory", "--capacity", "1G"],
    ["table3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0, argv
print(json.dumps({{
    "deny": sorted(m for m in {deny!r} if m in sys.modules),
    "tests": sorted(m for m in sys.modules
                    if m == "tests" or m.startswith("tests.")),
}}))
"""

_STORE = """
import contextlib, io, json, sys
import repro.cli

argv = ["cache", "--capacity", "64K", "--cache", {url!r}, "--stats"]
outs = []
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert repro.cli.main(argv) == 0
    outs.append(out.getvalue())
print(json.dumps({{"outs": outs, "sqlite": "_sqlite3" in sys.modules}}))
"""


#: The process-pool stack, loaded only when a map builds a pool.
POOL = ("multiprocessing", "concurrent.futures.process")

_SERIAL = """
import json, sys
from repro.cachedb import GridSpec, build_cachedb
from repro.study.runner import run_study
from repro.workloads.npb import UA_C

loaded = {{}}
study = run_study(profiles=(UA_C,), configs=("nol3",),
                  instructions_per_thread=2000, jobs=1)
assert len(study.results) == 1
loaded["study"] = sorted(m for m in {pool!r} if m in sys.modules)
grid = GridSpec(capacities_bytes=(64 << 10, 128 << 10),
                technologies=("sram",))
report = build_cachedb({db!r}, grid, jobs=1)
assert report.solved == 2, report
loaded["cachedb"] = sorted(m for m in {pool!r} if m in sys.modules)
print(json.dumps(loaded))
"""


#: The library modules the benchmark's set-up children import.
BENCH_CLOSURE = (
    "repro.cachedb",
    "repro.core.cacti",
    "repro.core.solvecache",
    "repro.obs",
    "repro.power.hierarchy",
    "repro.sim.system",
    "repro.study.runner",
    "repro.study.table3",
    "repro.workloads.npb",
    "repro.workloads.synthetic",
)

#: Library modules the benchmark's set-up never runs, so importing
#: ``BENCH_CLOSURE`` loads none of them.
UNUSED_BY_BENCH = (
    "repro.array.stacking",
    "repro.dram.interface",
    "repro.models.area",
    "repro.models.delay",
    "repro.models.energy",
    "repro.models.refresh",
    "repro.power.powerdown",
    "repro.power.thermal",
    "repro.study.sensitivity",
    "repro.workloads.micro",
)

_CLOSURE = """
import importlib, json, sys
for name in {closure!r}:
    importlib.import_module(name)
print(json.dumps(sorted(m for m in {unused!r} if m in sys.modules)))
"""

#: Subpackages whose ``__init__`` holds a docstring and nothing to
#: import; ``repro.tech``'s one import registers stt-ram.
PLAIN_PACKAGES = (
    "array", "circuits", "core", "dram", "models", "power", "sim",
    "study", "tech", "validation", "workloads",
)
_REGISTRATION = "from repro.tech import stt_ram as _stt_ram"


def _run(script: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.fspath(_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_plain_cli_calls_load_no_deferred_module():
    assert _run(_PLAIN.format(deny=DENY)) == {"deny": [], "tests": []}


def _imports_tests(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(n == "tests" or n.startswith("tests.") for n in names)


def test_src_never_imports_the_test_suite():
    """The reference oracles live under ``tests``; nothing in
    ``src/repro`` may import them, at module level or inside a
    function."""
    offenders = [
        f"{path.relative_to(_SRC)}:{node.lineno}"
        for path in sorted((_SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_tests(node)
    ]
    assert offenders == []


def test_sqlite_store_loads_sqlite_on_first_open(tmp_path):
    report = _run(_STORE.format(url=f"sqlite:{tmp_path / 's.db'}"))
    first, second = report["outs"]
    assert "solve cache           : 0 hits / 2 misses" in first
    assert "solve cache           : 2 hits / 0 misses" in second
    assert report["sqlite"]


def test_serial_maps_load_no_pool_stack(tmp_path):
    """One engine runs every map; at ``jobs=1`` it builds no pool."""
    script = _SERIAL.format(pool=POOL, db=os.fspath(tmp_path / "db.json"))
    assert _run(script) == {"study": [], "cachedb": []}


#: What a study without a store must not load: sqlite and the pool
#: stack.  (``hashlib`` is left out: ``numpy.random`` imports it.)
STUDY_DENY = ("sqlite3", "_sqlite3", *POOL)

_STUDY = """
import contextlib, io, json, sys
import repro.cli

argv = ["study", "--apps", "ft.B", "--configs", "nol3",
        "--instructions", "500", "--jobs", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(argv) == 0
print(json.dumps(sorted(m for m in {deny!r} if m in sys.modules)))
"""


def test_study_without_a_store_loads_no_sqlite_or_pool():
    assert _run(_STUDY.format(deny=STUDY_DENY)) == []


def test_bench_closure_loads_only_what_it_runs():
    script = _CLOSURE.format(closure=BENCH_CLOSURE, unused=UNUSED_BY_BENCH)
    assert _run(script) == []


def test_subpackages_reexport_nothing():
    imports = {
        pkg: [
            ast.unparse(node)
            for node in ast.walk(ast.parse(
                (_SRC / "repro" / pkg / "__init__.py").read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        for pkg in PLAIN_PACKAGES
    }
    expected = {pkg: [] for pkg in PLAIN_PACKAGES}
    expected["tech"] = [_REGISTRATION]
    assert imports == expected
