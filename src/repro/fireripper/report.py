"""User-facing partition report.

FireRipper's value proposition includes "quick feedback about the
partition interface and expected simulation performance" — this module
renders that feedback: per-pair interface widths, port-role breakdowns,
per-partition resource estimates with fit checks against an FPGA profile,
and the analytic rate prediction for a chosen transport and bitstream
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ResourceError
from ..harness.analytic import analytic_rate_hz
from ..platform.estimate import estimate_circuit_resources
from ..platform.resources import FPGAProfile, FPGAResources
from ..platform.transport import TransportModel
from .boundary import BoundaryPlan, SINK
from .extract import ExtractedDesign


@dataclass
class PartitionReport:
    """Compile-time feedback for a partitioned design."""

    mode: str
    partition_names: List[str]
    interface_widths: Dict[Tuple[str, str], int]
    role_counts: Dict[str, Dict[str, int]]
    resources: Dict[str, FPGAResources]
    utilization: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fit_failures: Dict[str, str] = field(default_factory=dict)
    expected_rate_hz: Optional[float] = None
    transport_name: Optional[str] = None
    host_freq_mhz: Optional[float] = None

    def to_text(self) -> str:
        lines = [f"FireRipper partition report (mode={self.mode})"]
        lines.append(f"  partitions: {', '.join(self.partition_names)}")
        for pair, width in sorted(self.interface_widths.items()):
            lines.append(f"  interface {pair[0]} <-> {pair[1]}: "
                         f"{width} bits")
        for pname in self.partition_names:
            roles = self.role_counts.get(pname, {})
            res = self.resources.get(pname)
            util = self.utilization.get(pname)
            lines.append(
                f"  {pname}: sink_out={roles.get('sink_out', 0)} "
                f"source_out={roles.get('source_out', 0)} "
                f"sink_in={roles.get('sink_in', 0)} "
                f"source_in={roles.get('source_in', 0)}")
            if res is not None:
                lines.append(f"    est. LUTs={res.luts:.0f} "
                             f"FFs={res.ffs:.0f} BRAM36={res.bram36:.0f}")
            if util is not None:
                lines.append(
                    "    utilization "
                    + " ".join(f"{k}={v:.1%}" for k, v in util.items()))
            if pname in self.fit_failures:
                lines.append(f"    DOES NOT FIT: {self.fit_failures[pname]}")
        if self.expected_rate_hz is not None:
            lines.append(
                f"  expected rate: {self.expected_rate_hz / 1e6:.3f} MHz "
                f"({self.transport_name} @ {self.host_freq_mhz} MHz)")
        return "\n".join(lines)


def build_report(design: ExtractedDesign, plan: BoundaryPlan,
                 profile: Optional[FPGAProfile] = None,
                 transport: Optional[TransportModel] = None,
                 host_freq_mhz: Optional[float] = None) -> PartitionReport:
    """Assemble the report from an extracted design and its channel plan."""
    names = sorted(design.partitions)
    widths: Dict[Tuple[str, str], int] = {}
    for net in plan.nets:
        pair = tuple(sorted((net.src, net.dst)))
        widths[pair] = widths.get(pair, 0) + net.width

    role_counts: Dict[str, Dict[str, int]] = {
        name: {"sink_out": 0, "source_out": 0,
               "sink_in": 0, "source_in": 0}
        for name in names
    }
    for net in plan.nets:
        out_role = "sink_out" if net.src_role == SINK else "source_out"
        in_role = "sink_in" if net.dst_role == SINK else "source_in"
        role_counts[net.src][out_role] += 1
        role_counts[net.dst][in_role] += 1

    resources = {name: estimate_circuit_resources(c)
                 for name, c in design.partitions.items()}
    utilization: Dict[str, Dict[str, float]] = {}
    fit_failures: Dict[str, str] = {}
    if profile is not None:
        for name, res in resources.items():
            try:
                utilization[name] = profile.check_fit(res, label=name)
            except ResourceError as exc:
                utilization[name] = exc.utilization
                fit_failures[name] = str(exc)

    expected = None
    if transport is not None:
        freq = host_freq_mhz or (profile.default_host_freq_mhz
                                 if profile else 30.0)
        max_dir_width = max(
            (sum(w for _, w in spec.ports)
             for chans in plan.channels.values()
             for spec in chans.out_specs),
            default=1)
        expected = analytic_rate_hz(plan.mode, max_dir_width, transport,
                                    freq,
                                    num_fpgas=len(design.partitions))
    return PartitionReport(
        mode=plan.mode,
        partition_names=names,
        interface_widths=widths,
        role_counts=role_counts,
        resources=resources,
        utilization=utilization,
        fit_failures=fit_failures,
        expected_rate_hz=expected,
        transport_name=transport.name if transport else None,
        host_freq_mhz=host_freq_mhz,
    )
