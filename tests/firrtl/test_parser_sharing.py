"""One ``parse_circuit`` call parses each distinct expression once and
shares the tree; every malformed line raises a typed ``IRError``; one
``print_circuit`` call prints each shared statement once."""

import dataclasses
import operator
import os
import subprocess
import sys

import pytest

from repro.errors import IRError
from repro.firrtl import parse_circuit, print_circuit
from repro.firrtl.ast import DefNode
from repro.firrtl.printer import _print_stmt
from repro.fuzz import generate_scenario, scenario_config
from repro.targets.soc import make_ring_noc_soc


def _circuit(*modules):
    """Circuit text with ``modules`` (name, body lines); the first is
    the top."""
    lines = [f"circuit {modules[0][0]} :"]
    for name, body in modules:
        lines.append(f"  module {name} :")
        lines += [f"    {ln}" for ln in body]
    return "\n".join(lines) + "\n"


def _node(circuit, module, name):
    return next(s.expr for s in circuit.modules[module].stmts
                if getattr(s, "name", None) == name)


def _adder(name, width):
    return (name, [f"input a : UInt<{width}>", "output o : UInt<16>",
                   "node n = add(a, bits(a, 1, 0))", "o <= pad(n, 16)"])


class TestSharing:
    def test_same_text_different_widths_gives_different_trees(self):
        c = parse_circuit(_circuit(_adder("A", 8), _adder("B", 4)))
        a, b = _node(c, "A", "n"), _node(c, "B", "n")
        assert a.width == 9 and a.args[0].width == 8
        assert b.width == 5 and b.args[0].width == 4
        assert a is not b
        # a statement is shared only where its trees are
        ma, mb = c.modules["A"], c.modules["B"]
        assert ma.ports[0] is not mb.ports[0]   # input a, 8 vs 4 bits
        assert ma.ports[1] is mb.ports[1]       # output o : UInt<16>
        assert not any(map(operator.is_, ma.stmts, mb.stmts))

    def test_same_text_same_widths_shares_one_tree(self):
        c = parse_circuit(_circuit(_adder("A", 8), _adder("B", 8)))
        assert _node(c, "A", "n") is _node(c, "B", "n")
        connects = [m.stmts[-1].expr for m in c.modules.values()]
        assert connects[0] is connects[1]
        # ...and so are the frozen ports and statements holding them
        ma, mb = c.modules["A"], c.modules["B"]
        assert all(map(operator.is_, ma.ports, mb.ports))
        assert all(map(operator.is_, ma.stmts, mb.stmts))

    def test_shared_tree_equals_a_fresh_parse(self):
        shared = parse_circuit(_circuit(_adder("A", 8), _adder("B", 8)))
        alone = parse_circuit(_circuit(_adder("B", 8)))
        assert shared.modules["B"].stmts == alone.modules["B"].stmts

    def test_node_widths_enter_the_key(self):
        """``m`` is a node in both modules, of different widths."""
        c = parse_circuit(_circuit(
            ("A", ["input a : UInt<8>", "output o : UInt<9>",
                   "node m = a", "o <= add(m, m)"]),
            ("B", ["input a : UInt<8>", "output o : UInt<9>",
                   "node m = bits(a, 2, 0)", "o <= add(m, m)"])))
        assert [m.stmts[-1].expr.width for m in c.modules.values()] \
            == [9, 4]

    def test_a_failing_expression_raises_on_every_occurrence(self):
        good = ("A", ["input g : UInt<8>", "output o : UInt<9>",
                      "o <= add(g, g)"])
        bad = ("B", ["input a : UInt<8>", "output o : UInt<9>",
                     "o <= add(g, g)"])
        text = _circuit(good, bad)
        for _ in range(2):
            with pytest.raises(IRError, match=r"B: .*unknown reference 'g'"):
                parse_circuit(text)


class TestRoundTrip:
    @pytest.mark.parametrize("scenario", [None] + list(range(20)),
                             ids=lambda i: "ring24" if i is None
                             else f"mill7_{i}")
    def test_print_of_parse_is_the_text(self, scenario):
        """24 near-identical tiles, then the seed-7 mill's first 20."""
        if scenario is None:
            text = print_circuit(make_ring_noc_soc(24, messages_per_tile=2))
        else:
            text = scenario_config(
                generate_scenario(7, scenario))["circuit_text"]
        assert print_circuit(parse_circuit(text)) == text


MALFORMED = {
    "param_not_a_number": ["input a : UInt<8>", "node n = bits(a, x, 0)"],
    "read_of_unknown_mem": ["input a : UInt<1>", "read r = m[a]"],
    "too_few_params": ["input a : UInt<8>", "node n = bits(a, 3)"],
    "stray_param": ["input a : UInt<8>", "node n = add(a, a, 3)"],
    "missing_param": ["input a : UInt<8>", "node n = shl(a)"],
    "too_few_args": ["input a : UInt<8>", "node n = mul(a)"],
    "mem_init_not_ints": ["mem m : UInt<8>[2] init [1, x]"],
    "untokenizable": ["input a : UInt<8>", "node n = add(a, a) < 3"],
    "garbage_line": ["banana banana"],
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_ir_error_naming_module_and_line(self, case):
        body = MALFORMED[case]
        with pytest.raises(IRError) as info:
            parse_circuit(_circuit(("Top", body)))
        assert str(info.value).startswith(f"Top: line {body[-1]!r}: ")

    @pytest.mark.parametrize("text", ["circuit\n", ""])
    def test_bad_header(self, text):
        with pytest.raises(IRError, match="header"):
            parse_circuit(text + "  module T :\n")

    def test_simulate_reports_one_error_line(self, tmp_path):
        path = tmp_path / "bad.fir"
        path.write_text(_circuit(("Top", MALFORMED["param_not_a_number"])))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", str(path),
             "--extract", "x", "--cycles", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 1
        assert out.stderr.splitlines() == [
            "error: Top: line 'node n = bits(a, x, 0)': "
            "bits: parameter 'x' is not a number"]


class TestPrintMemo:
    """``print_circuit`` prints each statement object once per call
    (statements are frozen, and a parse shares them between modules);
    its text is the plain printer's, one statement at a time."""

    @staticmethod
    def _plain(circuit):
        lines = [f"circuit {circuit.top} :"]
        for name in [circuit.top] + sorted(
                n for n in circuit.modules if n != circuit.top):
            module = circuit.modules[name]
            lines.append(f"  module {name} :")
            lines += [f"    {p.direction} {p.name} : UInt<{p.width}>"
                      for p in module.ports]
            lines += [f"    {_print_stmt(s)}" for s in module.stmts]
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    @pytest.mark.parametrize("index", range(6))
    def test_mill_circuits(self, index):
        circuit = parse_circuit(
            scenario_config(generate_scenario(7, index))["circuit_text"])
        assert print_circuit(circuit) == self._plain(circuit)

    def test_appended_and_replaced_statements(self):
        circuit = parse_circuit(print_circuit(make_ring_noc_soc(4)))
        before = print_circuit(circuit)
        edited = circuit.clone()
        first, second = (edited.modules[n] for n in ("Router0_n5",
                                                     "Router1_n5"))
        # an object the memo has already printed for another module
        second.stmts.append(first.stmts[-1])
        second.ports.append(first.ports[0])
        i = next(i for i, s in enumerate(first.stmts)
                 if isinstance(s, DefNode))
        first.stmts[i] = dataclasses.replace(
            first.stmts[i], name=first.stmts[i].name + "_moved")
        text = print_circuit(edited)
        assert text == self._plain(edited) != before
        assert "_moved" in text
        assert print_circuit(circuit) == before == self._plain(circuit)
