"""Shared fixtures: small circuits used across the suite, and an empty
design memo for every test.

The opt-in ``REPRO_TEST_TIMEOUT`` per-test watchdog lives in the
repo-root ``conftest.py`` so the benchmarks get it too.
"""

from __future__ import annotations

import pytest

from repro.fireripper.compiler import DESIGN_MEMO
from repro.firrtl import ModuleBuilder, build_circuit, make_circuit, mux


@pytest.fixture(autouse=True)
def _empty_design_memo():
    """Every test compiles afresh: a kernel-count or spy test never
    receives a design an earlier test already ran."""
    DESIGN_MEMO.clear()


@pytest.fixture
def counter_circuit():
    """8-bit free-running counter with an enable."""
    b = ModuleBuilder("Counter")
    en = b.input("en", 1)
    out = b.output("count", 8)
    r = b.reg("r", 8)
    b.connect(r, mux(en.read(), r + 1, r))
    b.connect(out, r)
    return build_circuit(b)


@pytest.fixture
def adder_pair_circuit():
    """Two-level hierarchy: top instantiates an adder child twice."""
    child = ModuleBuilder("AddOne")
    a = child.input("a", 8)
    y = child.output("y", 8)
    child.connect(y, a + 1)
    add_one = child.build()

    b = ModuleBuilder("Top")
    x = b.input("x", 8)
    z = b.output("z", 8)
    i0 = b.inst("first", add_one)
    i1 = b.inst("second", add_one)
    b.connect(i0["a"], x)
    b.connect(i1["a"], i0["y"])
    b.connect(z, i1["y"])
    return make_circuit(b.build(), [add_one])
