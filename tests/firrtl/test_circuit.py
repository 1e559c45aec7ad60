"""Module and Circuit container behaviour."""

import dataclasses

import pytest

from repro.errors import IRError
from repro.firrtl import ModuleBuilder, make_circuit, print_circuit
from repro.firrtl.ast import Expr, InstTarget, LocalTarget
from repro.firrtl.circuit import Circuit, Module


def _leaf(name="Leaf"):
    b = ModuleBuilder(name)
    a = b.input("a", 4)
    y = b.output("y", 4)
    b.connect(y, a + 1)
    return b.build()


def _two_level():
    leaf = _leaf()
    mid = ModuleBuilder("Mid")
    a = mid.input("a", 4)
    y = mid.output("y", 4)
    i = mid.inst("inner", leaf)
    mid.connect(i["a"], a)
    mid.connect(y, i["y"])
    mid_m = mid.build()

    top = ModuleBuilder("Top")
    a2 = top.input("a", 4)
    y2 = top.output("y", 4)
    m = top.inst("middle", mid_m)
    top.connect(m["a"], a2)
    top.connect(y2, m["y"])
    return make_circuit(top.build(), [mid_m, leaf])


class TestModule:
    def test_port_lookup(self):
        m = _leaf()
        assert m.port("a").width == 4
        with pytest.raises(IRError):
            m.port("nope")

    def test_fresh_name(self):
        m = _leaf()
        assert m.fresh_name("a") == "a_0"
        assert m.fresh_name("brand_new") == "brand_new"

    def test_connect_map_duplicate(self):
        m = _leaf()
        m.stmts.append(m.stmts[-1])  # duplicate the connect
        with pytest.raises(IRError):
            m.connect_map()


class TestCircuit:
    def test_missing_top(self):
        with pytest.raises(IRError):
            Circuit("Ghost", [_leaf()])

    def test_duplicate_module(self):
        with pytest.raises(IRError):
            Circuit("Leaf", [_leaf(), _leaf()])

    def test_instance_paths(self):
        c = _two_level()
        assert c.instance_paths("Leaf") == ["middle.inner"]
        assert c.instance_paths("Mid") == ["middle"]

    def test_resolve_path(self):
        c = _two_level()
        inst = c.resolve_path("middle.inner")
        assert inst.module == "Leaf"
        with pytest.raises(IRError):
            c.resolve_path("middle.bogus")

    def test_clone_is_deep(self):
        c = _two_level()
        before = print_circuit(c)
        clone = c.clone()
        assert print_circuit(clone) == before
        clone.module("Leaf").ports.append(
            _leaf("Other").ports[0])
        assert len(c.module("Leaf").ports) == 2
        # every mutable object is the clone's own: containers, ports,
        # statements
        mid = clone.module("Mid")
        mid.ports[0].width = 9
        mid.instance("inner").module = "Elsewhere"
        mid.stmts.pop()
        mid.name = "Renamed"
        del clone.modules["Leaf"]
        assert print_circuit(c) == before
        for name, m in c.modules.items():
            twin = c.clone().module(name)
            assert twin is not m
            assert all(a is not b for a, b in zip(m.ports, twin.ports))
            assert all(a is not b for a, b in zip(m.stmts, twin.stmts))

    def test_everything_a_clone_shares_is_frozen(self):
        """Clones share expression trees and connect targets, which is
        sound only while no such node can be mutated: a new Expr
        subclass must be a frozen dataclass too."""
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        shared = list(subclasses(Expr)) + [LocalTarget, InstTarget]
        assert len(shared) >= 6
        for cls in shared:
            assert dataclasses.is_dataclass(cls), cls
            assert cls.__dataclass_params__.frozen, cls
        # ...and shared they are: a clone's connect points at the same
        # expression object
        c = _two_level()
        assert c.clone().module("Leaf").connects()[0].expr \
            is c.module("Leaf").connects()[0].expr

    def test_remove_unreachable(self):
        c = _two_level()
        c.add_module(_leaf("Orphan"))
        c.remove_unreachable()
        assert "Orphan" not in c.modules
        assert set(c.modules) == {"Top", "Mid", "Leaf"}

    def test_stats(self):
        c = _two_level()
        stats = c.stats()
        assert stats["modules"] == 3
        assert stats["instances"] == 2
        assert stats["connects"] == 5


class TestMakeCircuit:
    def test_missing_library_module(self):
        leaf = _leaf()
        b = ModuleBuilder("Top")
        out = b.output("o", 4)
        i = b.inst("x", leaf)
        b.connect(i["a"], 0)
        b.connect(out, i["y"])
        top = b.build()
        with pytest.raises(IRError):
            make_circuit(top, [])  # leaf not provided

    def test_ignores_unrelated(self):
        leaf = _leaf()
        unrelated = _leaf("Unused")
        b = ModuleBuilder("Top")
        out = b.output("o", 4)
        i = b.inst("x", leaf)
        b.connect(i["a"], 0)
        b.connect(out, i["y"])
        c = make_circuit(b.build(), [leaf, unrelated])
        assert "Unused" not in c.modules
