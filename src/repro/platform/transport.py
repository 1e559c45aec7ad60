"""FPGA-to-FPGA transport models (Sec. IV of the paper).

Three transports, calibrated so the end-to-end partitioned-simulation
rates land where the paper measured them:

* :data:`QSFP_AURORA` — on-premises direct-attach QSFP cables through the
  Aurora protocol IP; lowest latency, enables ~1.6 MHz target frequency.
* :data:`PCIE_P2P` — AWS EC2 F1 peer-to-peer PCIe between FPGAs on the
  same instance; ~1 MHz.
* :data:`HOST_PCIE` — host-managed PCIe DMA through the C++ driver and a
  shared-memory bounce; works anywhere but caps at 26.4 kHz.

The cost model has three pieces per token transfer:

* ``latency_ns`` — one-way link/protocol latency,
* wire time — ``width / bandwidth`` plus a fixed per-token framing
  overhead,
* host-side (de)serialization — ``ceil(width / flit_bits)`` *host clock
  cycles* on each side, so its wall-clock cost shrinks as the bitstream
  frequency rises (the paper's fourth performance knob).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TransportModel:
    """Latency/bandwidth/overhead model of one FPGA-to-FPGA link type."""

    name: str
    latency_ns: float
    bandwidth_gbps: float
    per_token_overhead_ns: float
    flit_bits: int
    rate_cap_hz: Optional[float] = None

    def wire_ns(self, width_bits: int) -> float:
        """Time on the wire for one token of ``width_bits`` (excluding the
        host-side (de)serialization, which depends on the host clock)."""
        bits_per_ns = self.bandwidth_gbps  # 1 Gbps == 1 bit/ns
        return (self.latency_ns + self.per_token_overhead_ns
                + width_bits / bits_per_ns)

    def serdes_cycles(self, width_bits: int) -> int:
        """Host cycles to (de)serialize one token on one side."""
        return max(1, math.ceil(width_bits / self.flit_bits))

    def apply_rate_cap(self, rate_hz: float) -> float:
        """Clamp an achieved simulation rate to the transport's ceiling."""
        if self.rate_cap_hz is None:
            return rate_hz
        return min(rate_hz, self.rate_cap_hz)


#: On-prem QSFP direct-attach cables (~$25) + Aurora 64b/66b IP.
QSFP_AURORA = TransportModel(
    name="qsfp_aurora",
    latency_ns=480.0,
    bandwidth_gbps=64.0,
    per_token_overhead_ns=50.0,
    flit_bits=128,
)

#: AWS EC2 F1 peer-to-peer PCIe (AXI4 between FPGAs, no host hop).
PCIE_P2P = TransportModel(
    name="pcie_peer_to_peer",
    latency_ns=850.0,
    bandwidth_gbps=32.0,
    per_token_overhead_ns=80.0,
    flit_bits=128,
)

#: Host-managed PCIe: FPGA -> driver -> shared memory -> driver -> FPGA.
HOST_PCIE = TransportModel(
    name="host_managed_pcie",
    latency_ns=36_000.0,
    bandwidth_gbps=8.0,
    per_token_overhead_ns=1_500.0,
    flit_bits=512,
    rate_cap_hz=26_400.0,
)
