"""Checks on the source tree itself rather than on what it computes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_DIR / "src" / "msrcpspr"


def test_every_private_definition_is_referenced():
    # A private function or class that no module names is dead code.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert dead == []


def _written_attribute(target: ast.expr) -> str | None:
    """``x`` for an assignment target ``obj.x`` or ``obj.x[i]``, else None."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target.attr if isinstance(target, ast.Attribute) else None


def test_every_private_attribute_is_read():
    # State that a private class stores on ``self`` and that no module reads
    # is dead too.  A read inside a statement that writes the same attribute,
    # as in ``self.x[i] = self.x[i + 1] + c``, only builds it.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    stored: dict[str, str] = {}
    read = set()
    for path, tree in trees.items():
        building = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        stored.setdefault(sub.attr, f"{path.name}:{sub.lineno}: {node.name}.{sub.attr}")
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written = {_written_attribute(target) for target in targets}
                building.update(
                    id(sub)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr in written
                )
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in building
        )
    assert sorted(where for attr, where in stored.items() if attr not in read) == []


def test_perfbench_wraps_attributes_that_exist():
    # The benchmark wraps module attributes by name; a rename in the package
    # must fail here, not only in a benchmark run.  A fresh interpreter, so
    # the wrappers never reach this process.
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=REPO_DIR / "perfbench",
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_DIR / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package mapped to the package modules it imports.

    Every import counts wherever it stands: at module level, inside a
    function or under ``if TYPE_CHECKING``.  ``from . import x`` and
    ``from msrcpspr import x`` import module ``x`` when the package has
    one and ``__init__`` otherwise.
    """
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    graph: dict[str, set[str]] = {}
    for name, tree in modules.items():
        edges = graph[name] = set()
        for node in ast.walk(tree):
            absolute = isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "msrcpspr"
            if isinstance(node, ast.ImportFrom) and (node.level or absolute):
                target = node.module if node.level else node.module.partition(".")[2]
                if target:
                    edges.add(target.split(".")[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__" for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    top, _, rest = alias.name.partition(".")
                    if top == "msrcpspr":
                        edges.add(rest.split(".")[0] or "__init__")
    return graph


def _first_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of ``graph`` as the modules along it, first one repeated
    at the end, or None; depth first from the modules in sorted order."""
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for child in sorted(graph.get(node, ())):
            cycle = visit(child, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_package_imports_form_no_cycle():
    # Each module imports only the layers below it, so any one of them can
    # be read, imported and tested without the layers above.
    cycle = _first_cycle(_package_imports())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
