"""AST lint: no hard-coded cell-technology branches outside the registry.

The technology axis is pluggable: every per-technology behavior lives in
``repro.tech`` as a :class:`~repro.tech.registry.CellTraits` field, and
model code dispatches on traits.  A branch like ``if spec.cell_tech is
CellTech.LP_DRAM`` or ``if cell.is_dram`` silently breaks the next
registered technology (it worked for the triad, falls through for
stt-ram), so this lint fails CI when one reappears.

Flagged outside ``src/repro/tech/``:

* any comparison (``is``, ``is not``, ``==``, ``!=``, ``in``,
  ``not in``) with an operand that is a ``CellTech`` attribute
  (``CellTech.SRAM``, ``cells.CellTech.LP_DRAM``, ...),
* any ``.is_dram`` attribute access.

Plain *uses* of a ``CellTech`` attribute (constructing a spec with
``cell_tech=CellTech.SRAM``) are fine -- naming a technology is not
branching on one.  Tests are also exempt: they pin specific
technologies to assert specific numbers.  The array model's reference
oracle under ``tests/reference_array`` is model code, so CI names it as
a root beside ``src/repro``.

Usage::

    python tools/lint_tech_branches.py [ROOT ...]

Exits 0 when clean, 1 with a ``path:line: message`` report otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Directory whose modules are allowed to branch on technology: the
#: registry itself and the trait/cell definitions that feed it.
ALLOWED_PREFIX = ("src", "repro", "tech")

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_celltech_attribute(node: ast.AST) -> bool:
    """``CellTech.X`` or ``<module>.CellTech.X``."""
    if not isinstance(node, ast.Attribute):
        return False
    value = node.value
    if isinstance(value, ast.Name):
        return value.id == "CellTech"
    if isinstance(value, ast.Attribute):
        return value.attr == "CellTech"
    return False


class _TechBranchFinder(ast.NodeVisitor):
    def __init__(self, path: Path):
        self.path = path
        self.problems: list[tuple[Path, int, str]] = []

    def _report(self, node: ast.AST, message: str) -> None:
        self.problems.append((self.path, node.lineno, message))

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        # ``x in (CellTech.A, CellTech.B)`` hides the members one level
        # down in a container literal.
        for op in list(operands):
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                operands.extend(op.elts)
        if any(_is_celltech_attribute(op) for op in operands):
            self._report(
                node,
                "comparison against a CellTech member; dispatch on "
                "cell_tech.traits instead",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "is_dram":
            self._report(
                node,
                ".is_dram branch; query the specific trait "
                "(traits.sensing, traits.needs_refresh, ...) instead",
            )
        self.generic_visit(node)


def _is_allowed(path: Path) -> bool:
    parts = path.parts
    for i in range(len(parts) - len(ALLOWED_PREFIX) + 1):
        if parts[i:i + len(ALLOWED_PREFIX)] == ALLOWED_PREFIX:
            return True
    return False


def lint_file(path: Path) -> list[tuple[Path, int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    finder = _TechBranchFinder(path)
    finder.visit(tree)
    return finder.problems


def lint(roots: list[Path]) -> list[tuple[Path, int, str]]:
    problems = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            if _is_allowed(path.resolve()):
                continue
            problems.extend(lint_file(path))
    return problems


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [DEFAULT_ROOT]
    problems = lint(roots)
    for path, line, message in problems:
        print(f"{path}:{line}: {message}")
    if problems:
        print(f"{len(problems)} technology branch(es) outside repro/tech")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
