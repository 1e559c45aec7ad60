"""The frozen ledger's import surface.

``benchmarks/e2e/`` is the benchmark of record and only a
``[benchmark]`` PR may edit it, so every ``from repro… import …`` it
contains is a name this package must keep exporting, and every
``from benchmarks… import …`` reaching outside ``benchmarks/e2e`` is a
name that module must keep.  Tier-1 collects ``tests/`` only; this test
is what makes a refactor that moves one of those names fail here
instead of in the benchmark pipeline.  ``ast.walk`` descends into
function bodies, so a function-level import is pinned too.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _pinned(module: str) -> bool:
    top = module.split(".")[0]
    return top == "repro" or (
        top == "benchmarks" and not module.startswith("benchmarks.e2e"))


def pinned_imports():
    """Every ``(file, module, name)`` the ledger imports from repro or
    from ``benchmarks`` outside the ledger itself."""
    pins = set()
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and _pinned(node.module or ""):
                pins.update((path.name, node.module, alias.name)
                            for alias in node.names)
    return sorted(pins)


def test_the_ledger_imports_from_repro():
    assert pinned_imports(), f"no repro imports found under {LEDGER}"


@pytest.mark.parametrize("source, module, name", pinned_imports())
def test_pinned_import_resolves(source, module, name):
    target = importlib.import_module(module)
    if not hasattr(target, name):
        # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")


def test_importing_the_mill_stays_light():
    """Every ledger child imports ``repro.fuzz`` (for
    ``functional_digest``) before it measures, so the mill reaches the
    executor only on first use: importing it must not load the service
    package (asyncio, HTTP) or the process backend, which would show up
    in every workload's ``peak_rss_mb``."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro.fuzz; print(sorted("
         "m for m in ('repro.service', 'repro.parallel', 'asyncio') "
         "if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
