"""FireRipper's top-level compile flow.

Pipeline (mirrors Sec. III): well-formedness check -> module selection
(explicit or NoC-partition-mode) -> uniquify/reparent/group/extract ->
fast-mode target modifications (when requested) -> a check of what
those built or edited -> boundary analysis and channel planning (with
the exact-mode chain-length check) -> the partitions that repeat an
earlier one (:mod:`~repro.fireripper.repeats`), whose kernels are
derived from their first instance's, not printed.  Each design
is compiled once per process, keyed by content: :meth:`FireRipper.compile`
memoizes it under the circuit's fingerprint and the spec's field values.

The result, :class:`PartitionedDesign`, carries everything needed to
build and run a multi-FPGA co-simulation:
``design.build_simulation(...)`` wires Simulators, LI-BDN hosts, links
with a chosen transport, and external I/O drivers into a ready
:class:`~repro.harness.partitioned.PartitionedSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CompileError
from ..firrtl.circuit import Circuit
from ..firrtl.fingerprint import circuit_fingerprint
from ..firrtl.passes.check import check_circuit
from ..harness.partitioned import (
    ConstantSource,
    Link,
    Partition,
    PartitionedSimulation,
    TokenSource,
)
from ..libdn.fame5 import FAME5Host
from ..libdn.wrapper import LIBDNHost
from ..platform.resources import FPGAProfile
from ..platform.transport import TransportModel
from ..rtl.elaborate import Elaboration, elaborate, rename
from ..rtl.engine import Simulator
from .boundary import BoundaryPlan, plan_boundaries
from .extract import ExtractedDesign, extract_partitions
from .fastmode import apply_fast_mode_transforms, detect_rv_bundles
from .repeats import Repeats, find_repeats
from .report import PartitionReport, build_report
from .select import select_explicit, select_noc
from .spec import EXACT, FAST, PartitionSpec

#: compiled designs each design cache keeps — :data:`DESIGN_MEMO` and
#: the service's plan cache — least recently used first out (one is a
#: few hundred kB)
PLAN_CACHE_SIZE = 8


@dataclass
class PartitionedDesign:
    """Output of a FireRipper compile.

    Each partition is elaborated once, on its first build, and every
    later :meth:`build_simulation` hands the same :class:`Elaboration`
    (and the fused kernels memoized on it) to its new
    :class:`Simulator` — so a pickled design that has run carries its
    elaborations and kernels with it.  A repeat is not flattened: its
    elaboration is its first instance's header renamed, names that
    elaboration, σ and its literal images as ``repeat_of``, and makes
    its own netlist only when something reads it."""

    spec: PartitionSpec
    extracted: ExtractedDesign
    plan: BoundaryPlan
    elaborations: Dict[str, Elaboration] = field(
        default_factory=dict, repr=False, compare=False)
    repeats: Repeats = field(default_factory=dict, repr=False,
                             compare=False)

    @property
    def partitions(self) -> Dict[str, Circuit]:
        return self.extracted.partitions

    def elaboration(self, name: str) -> Elaboration:
        """Partition ``name``'s elaboration, made on first use; a
        repeat's is its first instance's renamed."""
        elab = self.elaborations.get(name)
        if elab is None:
            part, repeat = self.partitions[name], self.repeats.get(name)
            elab = self.elaborations[name] = elaborate(part) \
                if repeat is None else rename(
                    self.elaboration(repeat[0]), part, *repeat[1:])
        return elab

    @property
    def base_name(self) -> str:
        return self.extracted.base_name

    def report(self, profile: Optional[FPGAProfile] = None,
               transport: Optional[TransportModel] = None,
               host_freq_mhz: Optional[float] = None) -> PartitionReport:
        """The user-facing feedback: interface widths, resource
        estimates (fit-checked against ``profile``) and the expected
        rate over ``transport`` at ``host_freq_mhz``."""
        return build_report(self.extracted, self.plan, profile=profile,
                            transport=transport,
                            host_freq_mhz=host_freq_mhz)

    def build_simulation(
            self,
            transport: Union[TransportModel,
                             Dict[Tuple[str, str], TransportModel]],
            host_freq_mhz: Union[float, Dict[str, float]] = 30.0,
            sources: Optional[Dict[Tuple[str, str], TokenSource]] = None,
            record_outputs: bool = False,
            fame5_merge: Optional[Dict[str, Sequence[str]]] = None,
            advance_overhead_ns: float = 0.0,
            channel_capacity: int = 0,
            tracer=None,
            telemetry=None
            ) -> PartitionedSimulation:
        """Instantiate the full co-simulation for this design.

        Args:
            transport: one transport for every link, or a map keyed by
                (src partition, dst partition).
            host_freq_mhz: bitstream frequency, global or per partition.
            sources: drivers for external input channels; any external
                input channel without a source gets constant zeros.
            record_outputs: keep tokens from external output channels.
            fame5_merge: merged-FPGA name -> partition group names to
                multithread onto one FPGA via FAME-5 (Sec. VI-B).  The
                groups' LI-BDN hosts become threads ``t0..tN-1`` of one
                partition, which then spends N host cycles per target
                cycle while sharing combinational resources.
            tracer: optional
                :class:`~repro.observability.tracer.Tracer` threaded
                through the harness, units and links (null by default).
            telemetry: optional
                :class:`~repro.telemetry.Telemetry` session — a
                cycle-keyed sampler, and the run's metrics in the
                result (null by default).
        """
        fame5_merge = dict(fame5_merge or {})
        group_to_merged: Dict[str, Tuple[str, int]] = {}
        for merged, members in fame5_merge.items():
            for i, g in enumerate(members):
                if g not in self.partitions:
                    raise CompileError(
                        f"fame5_merge references unknown partition {g!r}")
                group_to_merged[g] = (merged, i)

        def locate(part: str, chan: str) -> Tuple[str, str]:
            if part in group_to_merged:
                merged, idx = group_to_merged[part]
                return merged, f"t{idx}:{chan}"
            return part, chan

        def host(name: str) -> LIBDNHost:
            chans = self.plan.channels[name]
            return LIBDNHost(Simulator(self.elaboration(name)),
                             chans.in_specs, chans.out_specs, name=name)

        def partition(name: str, host) -> Partition:
            freq = (host_freq_mhz.get(name, 30.0)
                    if isinstance(host_freq_mhz, dict) else host_freq_mhz)
            return Partition(name, host, freq,
                             advance_overhead_ns=advance_overhead_ns)

        # a merged group is built as a FAME-5 thread, in member order
        partitions = [partition(name, host(name)) for name in
                      self.partitions if name not in group_to_merged] + [
            partition(merged, FAME5Host.from_hosts(
                [host(g) for g in members], name=merged))
            for merged, members in fame5_merge.items()]

        links: List[Link] = []
        for lp in self.plan.links:
            if isinstance(transport, dict):
                key = (lp.src[0], lp.dst[0])
                model = transport.get(key) or transport.get(
                    (lp.dst[0], lp.src[0]))
                if model is None:
                    raise CompileError(
                        f"no transport configured for link {key}")
            else:
                model = transport
            links.append(Link(locate(*lp.src), locate(*lp.dst), model))

        all_sources: Dict[Tuple[str, str], TokenSource] = {}
        for name, chans in self.plan.channels.items():
            for chan_name in chans.external_in:
                spec = next(s for s in chans.in_specs
                            if s.name == chan_name)
                all_sources[locate(name, chan_name)] = ConstantSource(
                    {p: 0 for p in spec.port_names})
        for key, src in (sources or {}).items():
            all_sources[locate(*key)] = src
        return PartitionedSimulation(
            partitions, links, sources=all_sources,
            seed_boundary=(self.spec.mode == FAST),
            record_outputs=record_outputs,
            channel_capacity=channel_capacity,
            tracer=tracer,
            telemetry=telemetry)


#: (circuit fingerprint, repr of the spec's field values) -> compiled
#: design, least recently used first: the process-wide memo behind
#: :meth:`FireRipper.compile`
DESIGN_MEMO: Dict[Tuple[str, str], PartitionedDesign] = {}


class FireRipper:
    """The partitioning compiler (one instance per PartitionSpec)."""

    def __init__(self, spec: PartitionSpec):
        self.spec = spec

    def compile(self, circuit: Circuit) -> PartitionedDesign:
        """Partition ``circuit`` per the spec, once per process: equal
        circuit content under equal spec values returns the design the
        first compile made (:data:`DESIGN_MEMO`), which every later
        :meth:`~PartitionedDesign.build_simulation` shares.

        Raises :class:`~repro.errors.CombChainError` in exact-mode when a
        boundary combinational chain exceeds length two, and
        :class:`~repro.errors.SelectionError` for bad selections; a
        compile that raises caches nothing.
        """
        key = (circuit_fingerprint(circuit), repr(self.spec))
        # each step is one dict operation on str keys, which no thread
        # interrupts: threads sharing the memo at worst compile a
        # design twice or evict one early
        design = DESIGN_MEMO.pop(key, None) or self._compile(circuit)
        DESIGN_MEMO[key] = design
        for stale in list(DESIGN_MEMO)[:-PLAN_CACHE_SIZE]:
            DESIGN_MEMO.pop(stale, None)
        return design

    def _compile(self, circuit: Circuit) -> PartitionedDesign:
        check_circuit(circuit)
        if self.spec.groups is not None:
            groups = select_explicit(circuit, self.spec.groups)
        else:
            groups = select_noc(circuit, self.spec.noc)
        extracted = extract_partitions(circuit, groups,
                                       base_name=self.spec.base_name)
        if self.spec.mode == FAST:
            bundles = None
            if self.spec.rv_bundles is not None:
                wanted = set(self.spec.rv_bundles)
                bundles = [b for b in detect_rv_bundles(extracted.nets)
                           if b.prefix in wanted]
                missing = wanted - {b.prefix for b in bundles}
                if missing:
                    raise CompileError(
                        f"ready-valid bundles not found at the boundary: "
                        f"{sorted(missing)}")
            apply_fast_mode_transforms(extracted, bundles)
        for part in extracted.partitions.values():
            check_circuit(part, checked=circuit)
        plan = plan_boundaries(extracted, self.spec.mode)
        return PartitionedDesign(spec=self.spec, extracted=extracted,
                                 plan=plan,
                                 repeats=find_repeats(extracted.partitions))
