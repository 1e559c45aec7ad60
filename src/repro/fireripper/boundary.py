"""Boundary analysis: port roles, chain-length check, channel plan.

Exact-mode (Sec. III-A1) needs each partition's boundary ports separated
into *source* and *sink* roles by combinational dependency, and token
channels split so the seed token always exists by construction.  Nets are
grouped per (source partition, destination partition, source role,
destination role); the legal exact-mode combinations are:

* ``source -> sink``  — the paper's "source out" channel (register-driven
  output feeding the far side's combinational logic),
* ``sink -> source``  — the "sink out" channel (combinational output that
  lands in far-side sequential elements),
* ``source -> source`` — fully registered on both sides.

``sink -> sink`` means the combinational dependency chain crosses the
boundary more than twice; FireRipper terminates compilation and reports
the chain of combinational ports (:class:`~repro.errors.CombChainError`),
exactly as the paper describes.

Fast-mode (Sec. III-A2) aggregates everything into one channel per
direction per neighbor; the deadlock that aggregation would cause is
broken by seed tokens at simulation start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import CombChainError
from ..firrtl.circuit import Circuit
from ..firrtl.passes.comb import CombSummary, circuit_comb_deps
from ..libdn.token import ChannelSpec
from .extract import ExtractedDesign, RawNet
from .spec import EXACT, FAST

SOURCE = "source"
SINK = "sink"


@dataclass(frozen=True)
class BoundaryNet:
    """A boundary net annotated with LI-BDN roles on each side."""

    name: str
    width: int
    src: str
    dst: str
    src_role: str  # SINK if the driving output has comb input deps
    dst_role: str  # SINK if the consuming input feeds comb outputs


@dataclass
class PartitionChannels:
    """Channel plan for one partition."""

    in_specs: List[ChannelSpec] = field(default_factory=list)
    out_specs: List[ChannelSpec] = field(default_factory=list)
    #: channel names fed/drained by external drivers, not links
    external_in: List[str] = field(default_factory=list)
    external_out: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class LinkPlan:
    """A planned unidirectional link between two partition channels."""

    src: Tuple[str, str]
    dst: Tuple[str, str]
    width: int


@dataclass
class BoundaryPlan:
    """Full channel/link plan for a partitioned design."""

    mode: str
    nets: List[BoundaryNet]
    channels: Dict[str, PartitionChannels]
    links: List[LinkPlan]
    summaries: Dict[str, CombSummary]

    def total_boundary_width(self) -> int:
        return sum(n.width for n in self.nets)


def plan_boundaries(design: ExtractedDesign, mode: str) -> BoundaryPlan:
    """Classify boundary ports and produce the channel/link plan."""
    summaries: Dict[str, CombSummary] = {}
    for pname, circuit in design.partitions.items():
        summaries[pname] = circuit_comb_deps(circuit)[circuit.top]

    # per-partition port-role lookup.  Roles are judged against *boundary*
    # outputs only: an input that combinationally feeds nothing but
    # external (bridge) I/O never extends an inter-FPGA combinational
    # chain, so it stays a source for the chain-length rule.
    net_outs: Dict[str, Set[str]] = {p: set() for p in design.partitions}
    for raw in design.nets:
        net_outs[raw.src].add(raw.name)
    sink_outs: Dict[str, Set[str]] = {}
    sink_ins: Dict[str, Set[str]] = {}
    for pname, circuit in design.partitions.items():
        summary = summaries[pname]
        sink_outs[pname] = {o for o, ins in summary.items() if ins}
        feeds: Set[str] = set()
        for out_name in net_outs[pname]:
            feeds |= set(summary.get(out_name, frozenset()))
        sink_ins[pname] = feeds

    nets: List[BoundaryNet] = []
    for raw in design.nets:
        src_role = SINK if raw.name in sink_outs[raw.src] else SOURCE
        dst_role = SINK if raw.name in sink_ins[raw.dst] else SOURCE
        nets.append(BoundaryNet(raw.name, raw.width, raw.src, raw.dst,
                                src_role, dst_role))

    if mode == EXACT:
        _check_chain_length(design, nets, summaries)

    channels: Dict[str, PartitionChannels] = {
        p: PartitionChannels() for p in design.partitions
    }
    links: List[LinkPlan] = []

    # group nets into channels
    def group_key(net: BoundaryNet) -> Tuple:
        if mode == FAST:
            return (net.src, net.dst)
        return (net.src, net.dst, net.src_role, net.dst_role)

    grouped: Dict[Tuple, List[BoundaryNet]] = {}
    for net in nets:
        grouped.setdefault(group_key(net), []).append(net)

    # input-port -> in-channel-name per partition (for dep computation)
    in_channel_of_port: Dict[str, Dict[str, str]] = {
        p: {} for p in design.partitions
    }
    pending_out: List[Tuple[str, str, List[BoundaryNet]]] = []

    for key in sorted(grouped):
        group = grouped[key]
        src, dst = key[0], key[1]
        suffix = "" if mode == FAST else f".{key[2]}_{key[3]}"
        out_name = f"to_{dst}{suffix}"
        in_name = f"from_{src}{suffix}"
        ports = tuple(sorted((n.name, n.width) for n in group))
        for pname, _ in ports:
            in_channel_of_port[dst][pname] = in_name
        channels[dst].in_specs.append(ChannelSpec(in_name, ports))
        pending_out.append((src, out_name, group))
        links.append(LinkPlan((src, out_name), (dst, in_name),
                              sum(w for _, w in ports)))

    # external I/O of the base partition (original design-level I/O)
    base = design.base_name
    base_top = design.partitions[base].top_module
    net_port_names = {n.name for n in nets}
    ext_in = [(p.name, p.width) for p in base_top.input_ports
              if p.name not in net_port_names]
    ext_out = [(p.name, p.width) for p in base_top.output_ports
               if p.name not in net_port_names]
    if ext_in:
        spec = ChannelSpec("io_in", tuple(sorted(ext_in)))
        channels[base].in_specs.append(spec)
        channels[base].external_in.append("io_in")
        for pname, _ in ext_in:
            in_channel_of_port[base][pname] = "io_in"
    if ext_out:
        pending_out.append((base, "io_out", None))
        channels[base].external_out.append("io_out")

    # out channels with comb deps resolved against the in-channel map
    for src, out_name, group in pending_out:
        if group is None:  # external io_out
            ports = tuple(sorted(ext_out))
        else:
            ports = tuple(sorted((n.name, n.width) for n in group))
        summary = summaries[src]
        deps: Set[str] = set()
        for pname, _ in ports:
            for in_port in summary.get(pname, frozenset()):
                chan = in_channel_of_port[src].get(in_port)
                if chan is not None:
                    deps.add(chan)
        channels[src].out_specs.append(
            ChannelSpec(out_name, ports, frozenset(deps)))

    return BoundaryPlan(mode=mode, nets=nets, channels=channels,
                        links=links, summaries=summaries)


def _check_chain_length(design: ExtractedDesign,
                        nets: Sequence[BoundaryNet],
                        summaries: Dict[str, CombSummary]) -> None:
    """Reject sink->sink nets with the offending combinational chain."""
    for net in nets:
        if net.src_role != SINK or net.dst_role != SINK:
            continue
        # reconstruct a concrete chain for the diagnostic:
        #   dst output <- dst input (net) <- src output (net) <- src input
        dst_summary = summaries[net.dst]
        dst_out = next((o for o, ins in sorted(dst_summary.items())
                        if net.name in ins), "?")
        src_inputs = summaries[net.src].get(net.name, frozenset())
        src_in = sorted(src_inputs)[0] if src_inputs else "?"
        chain = [
            f"{net.dst}.{dst_out}",
            f"{net.dst}.{net.name}",
            f"{net.src}.{net.name}",
            f"{net.src}.{src_in}",
        ]
        raise CombChainError(chain)
