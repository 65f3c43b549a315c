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
