"""Unreached library surface does not grow back.

Every public top-level ``def``, ``class`` and UPPER_CASE constant of a
module under ``src/repro``, and every public method, property and
class-level field of a public top-level class (enum members exempt),
must be referenced by code that runs: a module under ``src``,
``bench``, ``benchmarks``, ``examples`` or ``tools``.  Tests do not
count, and neither do the name's own definition, an ``__init__``
re-export, an ``__all__`` entry, a comment or a docstring.  A reference
is a name, an attribute, a keyword argument, an import or a word inside
a string literal (so string-keyed dispatch counts).  A member is
matched by its bare name, so any attribute of that name reaches it.

``ALLOWED`` holds the few names that only tests call but that the
README or ``docs/`` document as API, each with its reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "benchmarks", "examples", "tools")

ALLOWED = {
    "repro.core.cacti.CactiD":
        "the facade of README's quick start",
    "repro.core.optimizer.pareto_solutions":
        "the ranked design cloud, documented in docs/MODELING.md",
    "repro.models.area.area_breakdown":
        "a solved design's area by component, documented in README.md "
        "and docs/MODELING.md",
    "repro.tech.registry.unregister":
        "the inverse of register, so a plug-in can remove what it added",
    "repro.workloads.micro.MICRO_PROFILES":
        "the set of micro presets DESIGN.md lists",
    "repro.core.results.Solution.run_report":
        "a solve's plain-JSON report, documented in README.md",
    "repro.core.cacti.MainMemorySolution.run_report":
        "a main-memory solve's plain-JSON report, documented in "
        "docs/MODELING.md",
    "repro.core.results.Solution.p_leakage_at":
        "leakage at any die temperature, listed in DESIGN.md",
    "repro.obs.trace.Tracer.write_json":
        "the flat span dump, documented in docs/MODELING.md",
    "repro.sim.coherence.MesiDirectory.sharers":
        "kept until ROADMAP item 1 settles the directory's surface",
}

_UPPER = re.compile(r"[A-Z][A-Z0-9_]*")
_WORD = re.compile(r"\w+")
_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def _defined_names(node: ast.stmt, field) -> list[str]:
    """Public names ``node`` defines: a def or class, or the targets of
    an assignment that ``field`` accepts."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                        ast.Name):
        names = [node.target.id]
    else:
        return []
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
        names = [name for name in names if field(name)]
    return [name for name in names if not name.startswith("_")]


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level def, class and constant,
    and ("Class.member", node) for each public member of a public
    class."""
    for node in tree.body:
        for name in _defined_names(node, _UPPER.fullmatch):
            yield name, node
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        enum = any(isinstance(base, ast.Name) and base.id in _ENUM_BASES
                   for base in node.bases)
        for member in node.body:
            for name in _defined_names(member, lambda name: not enum):
                yield f"{node.name}.{name}", member


def _words(node: ast.AST):
    """Every identifier ``node`` references, docstrings excluded."""
    prose = {
        id(sub.value) for sub in ast.walk(node)
        if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant)
    }
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            yield sub.arg
        elif isinstance(sub, ast.alias):
            yield from _WORD.findall(sub.name)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in prose):
            yield from _WORD.findall(sub.value)


def _is_reexport(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)
    )


def unreached(root: Path) -> list[str]:
    """Dotted names of the public definitions under ``root/src`` that no
    scanned module references."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in SCANNED
        for path in sorted((root / top).rglob("*.py"))
    }
    references: Counter[str] = Counter()
    for path, tree in trees.items():
        for node in tree.body:
            if path.name == "__init__.py" and _is_reexport(node):
                continue
            references.update(_words(node))
    found = []
    src = root / "src"
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, node in _public_definitions(tree):
            word = name.rpartition(".")[2]
            own = sum(1 for w in _words(node) if w == word)
            if references[word] <= own:
                found.append(f"{module}.{name}")
    return found


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


@pytest.fixture(scope="module")
def found() -> set[str]:
    return set(unreached(REPO))


def test_every_public_name_is_reached(found):
    assert sorted(found - ALLOWED.keys()) == [], (
        "unreached library surface: delete it, or give it a caller"
    )


def test_allowlist_has_no_stale_entries(found):
    assert sorted(ALLOWED.keys() - found) == []


class TestRule:
    def test_reexports_and_own_body_do_not_count(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/__init__.py": (
                "from pkg.mod import helper, LIMIT\n"
                "__all__ = ['helper', 'LIMIT']\n"
            ),
            "src/pkg/mod.py": (
                "LIMIT = 3\n"
                "def helper(n):\n"
                "    return helper(n - 1) if n else LIMIT\n"
            ),
        })
        assert unreached(root) == ["pkg.mod.helper"]

    def test_docstrings_and_comments_do_not_count(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/mod.py": "def helper():\n    pass\n",
            "tools/run.py": (
                '"""Calls helper."""\n'
                "# helper used to run here\n"
            ),
        })
        assert unreached(root) == ["pkg.mod.helper"]

    def test_code_and_strings_count(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/mod.py": (
                "def helper():\n    pass\n"
                "def named():\n    pass\n"
                "class Unused:\n    pass\n"
                "lower_case = 1\n"
            ),
            "examples/demo.py": (
                "import pkg.mod\n"
                "pkg.mod.helper()\n"
                "getattr(pkg.mod, 'named')()\n"
            ),
        })
        assert unreached(root) == ["pkg.mod.Unused"]

    def test_tests_do_not_count(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/mod.py": "def helper():\n    pass\n",
            "tests/test_mod.py": "from pkg.mod import helper\nhelper()\n",
        })
        assert unreached(root) == ["pkg.mod.helper"]
