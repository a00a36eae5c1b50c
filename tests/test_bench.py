"""The benchmark's per-layer rows name functions that exist, and its smoke
run passes."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _reported():
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "REPORTED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no REPORTED tuple")


def test_reported_names_are_library_callables():
    names = _reported()
    assert names
    for name in names:
        module, function = name.split(".")
        target = getattr(importlib.import_module("triplecover." + module),
                         function, None)
        assert callable(target), name


def test_bench_smoke():
    """One spec of every workload, untraced and traced, with each
    workload's own answer check."""
    done = subprocess.run([sys.executable, str(RUN_PY), "--smoke"],
                          cwd=RUN_PY.parent.parent, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
