"""The design memo: ``FireRipper.compile`` compiles each (circuit
content, spec) once per process and hands the same design back."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CombChainError, SelectionError
from repro.fireripper import (
    EXACT,
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
    compiler,
)
from repro.fireripper.compiler import DESIGN_MEMO, PLAN_CACHE_SIZE
from repro.firrtl import ModuleBuilder, make_circuit, parse_circuit, \
    print_circuit
from repro.platform import QSFP_AURORA, XILINX_U250
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import make_ring_noc_soc, make_wide_pair

PAIR_TEXT = print_circuit(make_comb_pair_circuit())
RING_TEXT = print_circuit(make_ring_noc_soc(4, messages_per_tile=3))

#: what the report built on every compile printed for
#: ``test_compiler.py::test_report_contents``' arguments
EAGER_REPORT = """\
FireRipper partition report (mode=exact)
  partitions: base, fpga1
  interface base <-> fpga1: 64 bits
  base: sink_out=1 source_out=1 sink_in=1 source_in=1
    est. LUTs=17 FFs=16 BRAM36=0
    utilization luts=0.0% ffs=0.0% bram36=0.0% dsps=0.0%
  fpga1: sink_out=1 source_out=1 sink_in=1 source_in=1
    est. LUTs=70 FFs=16 BRAM36=0
    utilization luts=0.0% ffs=0.0% bram36=0.0% dsps=0.0%
  expected rate: 0.753 MHz (qsfp_aurora @ 30.0 MHz)"""


def _groups(mode=EXACT, *paths):
    return PartitionSpec(mode=mode, groups=[
        PartitionGroup.make(f"fpga{i + 1}", [path])
        for i, path in enumerate(paths or ("right",))])


def _noc(*router_groups):
    return PartitionSpec(mode=FAST,
                         noc=NoCPartitionSpec.make(router_groups))


@pytest.fixture
def extracts(monkeypatch):
    """The ``extract_partitions`` calls compiles made: one per miss."""
    calls = []
    extract = compiler.extract_partitions

    def counted(*args, **kwargs):
        calls.append(args[1])
        return extract(*args, **kwargs)

    monkeypatch.setattr(compiler, "extract_partitions", counted)
    return calls


def _long_chain_circuit():
    """``c`` combs a register into ``a``, which combs it into the top's
    output: in two groups, a boundary chain longer than exact allows."""
    def comb_module(name, op):
        mb = ModuleBuilder(name)
        mb.connect(mb.output("o", 8), op(mb.input("i", 8)))
        return mb.build()

    mod_a = comb_module("ModA", lambda i: i + 1)
    mod_c = comb_module("ModC", lambda i: i ^ 3)
    tb = ModuleBuilder("ChainTop")
    tout = tb.output("tout", 8)
    r = tb.reg("r", 8)
    a = tb.inst("a", mod_a)
    c = tb.inst("c", mod_c)
    tb.connect(c["i"], r)
    tb.connect(a["i"], c["o"])
    tb.connect(tout, a["o"])
    tb.connect(r, r + 1)
    return make_circuit(tb.build(), [mod_a, mod_c])


def test_two_parses_of_one_text_compile_once(extracts):
    first = FireRipper(_groups()).compile(parse_circuit(PAIR_TEXT))
    again = FireRipper(_groups()).compile(parse_circuit(PAIR_TEXT))
    assert again is first
    assert len(extracts) == 1
    assert list(DESIGN_MEMO.values()) == [first]


@pytest.mark.parametrize("other", [
    _groups(FAST),
    _groups(EXACT, "left"),
    _groups(EXACT, "left", "right"),
], ids=["mode", "group-path", "group-list"])
def test_another_spec_misses(extracts, other):
    circuit = parse_circuit(PAIR_TEXT)
    design = FireRipper(_groups()).compile(circuit)
    assert FireRipper(other).compile(circuit) is not design
    assert len(extracts) == 2


def test_another_router_group_misses(extracts):
    circuit = parse_circuit(RING_TEXT)
    design = FireRipper(_noc([0, 1], [2, 3])).compile(circuit)
    assert FireRipper(_noc([0, 1], [2, 3])).compile(circuit) is design
    assert FireRipper(_noc([0], [2, 3])).compile(circuit) is not design
    assert len(extracts) == 2


def test_a_mutated_circuit_compiles_fresh(extracts):
    circuit = parse_circuit(PAIR_TEXT)
    design = FireRipper(_groups()).compile(circuit)
    spare = ModuleBuilder("Spare")
    spare.connect(spare.output("o", 1), spare.input("i", 1))
    circuit.add_module(spare.build())
    fresh = FireRipper(_groups()).compile(circuit)
    assert fresh is not design
    assert len(extracts) == 2


@pytest.mark.parametrize("spec, circuit, error", [
    (PartitionSpec(mode=EXACT, groups=[PartitionGroup.make("g1", ["a"]),
                                       PartitionGroup.make("g2", ["c"])]),
     _long_chain_circuit, CombChainError),
    (_groups(EXACT, "nowhere"), make_comb_pair_circuit, SelectionError),
], ids=["comb-chain", "bad-path"])
def test_a_failing_compile_caches_nothing(spec, circuit, error):
    for _ in range(2):
        with pytest.raises(error):
            FireRipper(spec).compile(circuit())
        assert not DESIGN_MEMO


def test_the_memo_is_bounded(extracts):
    designs = [FireRipper(_groups()).compile(
        parse_circuit(print_circuit(make_wide_pair(width))))
        for width in range(8, PLAN_CACHE_SIZE + 10)]
    assert len(DESIGN_MEMO) == PLAN_CACHE_SIZE
    assert list(DESIGN_MEMO.values()) == designs[-PLAN_CACHE_SIZE:]
    # the oldest was evicted: it compiles again
    FireRipper(_groups()).compile(make_wide_pair(8))
    assert len(extracts) == PLAN_CACHE_SIZE + 3
    assert len(DESIGN_MEMO) == PLAN_CACHE_SIZE


def _partition_texts(design):
    return {name: print_circuit(part)
            for name, part in design.partitions.items()}


def test_threads_share_the_memo():
    """More threads than cores, switched every microsecond, compile
    more contents than the memo holds: none fails, each gets the design
    of the content it asked for, and the memo stays bounded."""
    texts = [print_circuit(make_wide_pair(width))
             for width in range(8, PLAN_CACHE_SIZE + 12)]

    def compile_all(offset):
        order = texts[offset:] + texts[:offset]
        return [(text, FireRipper(_groups()).compile(parse_circuit(text)))
                for text in order * 2]

    want = {text: _partition_texts(design)
            for text, design in compile_all(0)}
    DESIGN_MEMO.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(compile_all, i) for i in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(_partition_texts(design) == want[text]
               for result in results for text, design in result)
    assert len(DESIGN_MEMO) <= PLAN_CACHE_SIZE


def test_the_report_is_built_when_asked():
    design = FireRipper(_groups()).compile(make_comb_pair_circuit())
    report = design.report(XILINX_U250, QSFP_AURORA, 30.0)
    assert report.to_text() == EAGER_REPORT
    assert design.report().expected_rate_hz is None
