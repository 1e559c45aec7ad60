"""Shared designs for the process-backend tests."""

from __future__ import annotations

import pytest

from repro.firrtl import ModuleBuilder, make_circuit
from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.harness import FunctionSource
from repro.parallel import ProcessBackend
from repro.platform import QSFP_AURORA

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


def build_star_sim(n_leaves: int = 2, mode=EXACT, **kwargs):
    kwargs.setdefault("record_outputs", True)
    kwargs.setdefault("sources", {("base", "io_in"): stim_source()})
    return star_design(n_leaves, mode).build_simulation(
        QSFP_AURORA, **kwargs)


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
    host, so its runs genuinely span agents."""
    from repro.farm import FarmBackend, FarmSpec, HostSpec
    return FarmBackend(
        FarmSpec([HostSpec("h0", cores=2), HostSpec("h1", cores=1)]),
        **kwargs)


class OnFarm:
    """Mixin: re-run a backend-agnostic test class through the farm —
    the same supervision loop with host agents as its endpoints."""

    @pytest.fixture
    def make_backend(self):
        return farm_backend
