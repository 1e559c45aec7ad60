"""The frozen ledger's import surface.

``benchmarks/e2e/`` is the benchmark of record and only a
``[benchmark]`` PR may edit it, so every ``from repro… import …`` it
contains is a name this package must keep exporting.  Tier-1 collects
``tests/`` only; this test is what makes a refactor that moves one of
those names fail here instead of in the benchmark pipeline.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def pinned_imports():
    """Every ``(file, module, name)`` the ledger imports from repro."""
    pins = set()
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "repro":
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
