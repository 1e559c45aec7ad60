"""Shared designs for the process-backend tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.firrtl import ModuleBuilder, make_circuit, print_circuit
from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.harness import FunctionSource
from repro.parallel import ProcessBackend
from repro.platform import QSFP_AURORA
from repro.platform.ethernet import SwitchedEthernetTransport
from repro.service.executor import normalize_config

STIM = [3, 9, 250, 0, 7, 8, 1, 2, 200, 17, 4, 99]


def make_star_circuit(n_leaves: int = 2):
    """Star topology: the top instantiates ``n_leaves`` registered leaf
    modules, each later extracted onto its own FPGA, with an external
    stimulus wired through the base's io_in bridge and every leaf
    closing a cross-partition feedback loop."""
    widths = [8, 4, 16]
    children = []
    for k in range(n_leaves):
        w = widths[k % len(widths)]
        cb = ModuleBuilder(f"Leaf{k}")
        i0 = cb.input("i0", w)
        reg = cb.reg("state", w, init=(37 * (k + 1)) % (1 << w))
        out = cb.output("o0", w)
        cb.connect(out, reg)
        cb.connect(reg, reg.read() + i0.read())
        children.append(cb.build())

    tb = ModuleBuilder("Top")
    stim = tb.input("stim", 8)
    for k in range(n_leaves):
        w = widths[k % len(widths)]
        r = tb.reg(f"r{k}", w, init=(k + 1) * 7)
        inst = tb.inst(f"leaf{k}", children[k])
        tb.connect(inst["i0"], r)
        tb.connect(r, inst["o0"].read() ^ stim.read())
        tb.connect(tb.output(f"obs{k}", w), inst["o0"])
    return make_circuit(tb.build(), children)


def star_design(n_leaves: int = 2, mode=EXACT):
    groups = [PartitionGroup.make(f"fpga{k + 1}", [f"leaf{k}"])
              for k in range(n_leaves)]
    spec = PartitionSpec(mode=mode, groups=groups)
    return FireRipper(spec).compile(make_star_circuit(n_leaves))


def stim_source():
    return FunctionSource(
        lambda c: {"stim": STIM[c] if c < len(STIM) else 0})


def attach_switches(sim, fabric_for):
    """Route every link through the fabric ``fabric_for(link)`` names:
    the link keeps its transport's constants and gains the switch hop."""
    for link in sim.links:
        link.transport = SwitchedEthernetTransport(
            **dataclasses.asdict(link.transport), switch=fabric_for(link))


def build_star_sim(n_leaves: int = 2, mode=EXACT, **kwargs):
    kwargs.setdefault("record_outputs", True)
    kwargs.setdefault("sources", {("base", "io_in"): stim_source()})
    return star_design(n_leaves, mode).build_simulation(
        QSFP_AURORA, **kwargs)


def star_farm_job(spec, n_leaves: int = 2, cycles: int = 300,
                  **facts) -> dict:
    """The normalized farm job of the star design on the manifest
    ``spec`` — what a ``FarmManager`` is built from, runs and
    fingerprints (``facts``: ``checkpoint_every``, ``kill_host`` ...)."""
    return normalize_config({
        "kind": "farm",
        "circuit_text": print_circuit(make_star_circuit(n_leaves)),
        "extract": [f"leaf{k}" for k in range(n_leaves)],
        "hosts": spec.to_dict(), "cycles": cycles, **facts})


def make_free_middle_circuit(with_tail: bool = True):
    """``mid`` is a free-running counter with no inputs: it feeds the
    top (and the tail) over one-directional links, so nothing paces it
    but its own passes.  With the tail, top and tail close an
    exact-mode combinational loop that costs them two passes per
    cycle — ``mid``, between them in partition order, reaches any
    target in half their passes and serves empty frames both ways."""
    mb = ModuleBuilder("Mid")
    cnt = mb.reg("cnt", 8, init=3)
    mb.connect(cnt, cnt.read() + cnt.read() + 1)
    mb.connect(mb.output("to_top", 8), cnt)
    if with_tail:
        mb.connect(mb.output("to_tail", 8), cnt)
    children = [mb.build()]

    tb = ModuleBuilder("Top")
    stim = tb.input("stim", 8)
    r = tb.reg("r", 8, init=7)
    mid = tb.inst("mid", children[0])
    if with_tail:
        cb = ModuleBuilder("Tail")
        i0 = cb.input("i0", 8)
        m0 = cb.input("m0", 8)
        state = cb.reg("state", 8, init=5)
        cb.connect(cb.output("o0", 8), state.read() ^ i0.read())
        cb.connect(state, state.read() + i0.read() + m0.read())
        children.append(cb.build())
        tail = tb.inst("tail", children[1])
        tb.connect(tail["i0"], r)
        tb.connect(tail["m0"], mid["to_tail"])
        feedback = tail["o0"].read()
    else:
        feedback = r.read()
    tb.connect(r, (feedback ^ stim.read()) + mid["to_top"].read())
    tb.connect(tb.output("obs", 8), r)
    return make_circuit(tb.build(), children)


def build_free_middle_sim(with_tail: bool = True):
    names = ["mid", "tail"] if with_tail else ["mid"]
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make(name, [name]) for name in names])
    design = FireRipper(spec).compile(
        make_free_middle_circuit(with_tail))
    return design.build_simulation(
        QSFP_AURORA, record_outputs=True,
        sources={("base", "io_in"): stim_source()})


def build_fame5_sim():
    """Star SoC with three tiles FAME-5 threaded onto one FPGA."""
    from repro.targets.soc import make_star_soc
    groups = [PartitionGroup.make(f"g{i}", [f"tile{i}"])
              for i in range(3)]
    design = FireRipper(PartitionSpec(mode=EXACT, groups=groups)
                        ).compile(make_star_soc(3, messages_per_tile=5))
    return design.build_simulation(
        QSFP_AURORA, record_outputs=True,
        fame5_merge={"tilefpga": [g.name for g in groups]})


#: bit-identity inputs beyond the stars, by what they put on the wire
SHAPES = {
    # a finished worker serving peers before and after it
    "middle_finishes_first": build_free_middle_sim,
    # one link, one direction: the reverse stream carries credits only
    "one_way_link": lambda: build_free_middle_sim(with_tail=False),
    # several LI-BDN units behind one worker
    "fame5": build_fame5_sim,
}


def build_sim(shape):
    """A star of ``shape`` leaves, or the :data:`SHAPES` entry of that
    name."""
    if isinstance(shape, int):
        return build_star_sim(shape)
    return SHAPES[shape]()


@pytest.fixture
def star_sim_factory():
    return build_star_sim


@pytest.fixture
def make_backend():
    """Factory of the distributed backend under test (keyword
    arguments as for ``ProcessBackend``); :class:`OnFarm` swaps in the
    farm."""
    return ProcessBackend


def farm_backend(**kwargs):
    """A two-host farm too small for the star design to fit on one
    host, so its runs genuinely span hosts."""
    from repro.farm import FarmBackend, FarmSpec, HostSpec
    return FarmBackend(
        FarmSpec([HostSpec("h0", cores=2), HostSpec("h1", cores=1)]),
        **kwargs)


class OnFarm:
    """Mixin: re-run a backend-agnostic test class through the farm —
    the same supervision loop over workers placed on two hosts."""

    @pytest.fixture
    def make_backend(self):
        return farm_backend
