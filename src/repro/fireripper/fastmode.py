"""Fast-mode target modifications (Sec. III-A2, Fig. 3c).

Fast-mode seeds one token per boundary channel, which injects one cycle of
latency between the partitions.  That breaks ready-valid backpressure
(Fig. 3b's step 6: the sink observes two valid beats for one source beat),
so FireRipper rewrites the target at the boundary:

* **sink side** — a skid buffer is inserted between the boundary
  valid/bits/ready ports and the original consumer, sized so tokens in
  flight during the stale-ready window are never dropped (depth 4, ready
  advertised while at most one entry is occupied);
* **source side** — the outgoing valid is gated to ``valid & ready`` so a
  transaction is emitted exactly once, on the cycle the source believes
  the handshake fires.

These are *systematic* transforms: the modified RTL is still wrapped in an
LI-BDN, so results remain cycle-exact with respect to the modified target
(the paper's "cycle-approximate" fidelity contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CompileError
from ..firrtl.ast import (
    Connect,
    DefInstance,
    InstPort,
    InstTarget,
    LocalTarget,
    Ref,
)
from ..firrtl.builder import ModuleBuilder, Signal, mux
from ..firrtl.circuit import Circuit, Module
from .extract import ExtractedDesign, RawNet, _rewrite_module_exprs


@dataclass(frozen=True)
class RVBoundaryBundle:
    """A ready-valid bundle crossing the partition boundary.

    ``src`` drives valid/bits; ``dst`` drives ready.
    """

    prefix: str
    src: str
    dst: str
    valid_net: str
    ready_net: str
    bits_net: str
    width: int


def detect_rv_bundles(nets: Sequence[RawNet]) -> List[RVBoundaryBundle]:
    """Find ready-valid bundles among boundary nets by the
    ``<prefix>_valid`` / ``<prefix>_ready`` / ``<prefix>_bits`` naming
    convention (the builder's ``rv_input``/``rv_output`` sugar)."""
    by_name = {n.name: n for n in nets}
    bundles: List[RVBoundaryBundle] = []
    for net in nets:
        if not net.name.endswith("_valid"):
            continue
        prefix = net.name[: -len("_valid")]
        ready = by_name.get(prefix + "_ready")
        bits = by_name.get(prefix + "_bits")
        if ready is None or bits is None:
            continue
        # valid/bits flow together; ready flows the opposite way
        if bits.src != net.src or bits.dst != net.dst:
            continue
        if ready.src != net.dst or ready.dst != net.src:
            continue
        bundles.append(RVBoundaryBundle(
            prefix=prefix, src=net.src, dst=net.dst,
            valid_net=net.name, ready_net=ready.name,
            bits_net=bits.name, width=bits.width))
    return bundles


def make_skid_buffer(width: int, depth: int = 4,
                     ready_threshold: int = 1) -> Module:
    """Skid buffer that always absorbs arrivals while advertising a
    conservative ready.

    ``enq_ready`` (sent back across the boundary, and therefore observed
    one cycle stale) is asserted only while at most ``ready_threshold``
    entries are occupied; with the source's ``valid & ready`` gating, at
    most two transactions can be in flight during the stale window, so
    ``depth >= ready_threshold + 3`` never drops a beat.
    """
    if depth < ready_threshold + 3:
        raise CompileError(
            f"skid buffer depth {depth} too small for ready threshold "
            f"{ready_threshold} with one cycle of injected latency")
    b = ModuleBuilder(f"FireAxeSkidBuffer_w{width}_d{depth}")
    enq_valid = b.input("enq_valid", 1)
    enq_bits = b.input("enq_bits", width)
    enq_ready = b.output("enq_ready", 1)
    deq_valid = b.output("deq_valid", 1)
    deq_bits = b.output("deq_bits", width)
    deq_ready = b.input("deq_ready", 1)

    ptr_w = max((depth - 1).bit_length(), 1)
    cnt_w = depth.bit_length()
    count = b.reg("count", cnt_w)
    rptr = b.reg("rptr", ptr_w)
    wptr = b.reg("wptr", ptr_w)
    storage = b.mem("storage", depth, width)

    not_full = b.node("not_full", count.lt(depth))
    enq_fire = b.node("enq_fire", enq_valid & not_full)
    has_data = b.node("has_data", count.gt(0))
    deq_fire = b.node("deq_fire", has_data & deq_ready)

    b.mem_write(storage, wptr, enq_bits, enq_fire)
    head = b.mem_read(storage, "head", rptr)

    b.connect(deq_valid, has_data)
    b.connect(deq_bits, head)
    b.connect(enq_ready, count.leq(ready_threshold))

    wrap = depth - 1
    b.connect(wptr, mux(enq_fire, mux(wptr.eq(wrap), b.lit(0, ptr_w),
                                      wptr + 1), wptr))
    b.connect(rptr, mux(deq_fire, mux(rptr.eq(wrap), b.lit(0, ptr_w),
                                      rptr + 1), rptr))
    b.connect(count, (count + enq_fire) - deq_fire)
    return b.build()


def apply_fast_mode_transforms(
        design: ExtractedDesign,
        bundles: Optional[Sequence[RVBoundaryBundle]] = None
        ) -> List[RVBoundaryBundle]:
    """Rewrite the partition circuits in place for fast-mode operation.

    Returns the bundles that were transformed (auto-detected when not
    given).
    """
    if bundles is None:
        bundles = detect_rv_bundles(design.nets)
    for bundle in bundles:
        _gate_source_valid(design.partitions[bundle.src], bundle)
        _insert_sink_skid(design.partitions[bundle.dst], bundle)
    return list(bundles)


def _gate_source_valid(circuit: Circuit, bundle: RVBoundaryBundle) -> None:
    """source side: ``valid <= valid_expr & ready_in``."""
    top = circuit.top_module
    for i, s in enumerate(top.stmts):
        if isinstance(s, Connect) and isinstance(s.target, LocalTarget) \
                and s.target.name == bundle.valid_net:
            gated = (Signal(s.expr) & Ref(bundle.ready_net, 1)).expr
            top.stmts[i] = Connect(s.target, gated)
            return
    raise CompileError(
        f"{circuit.top}: no driver found for boundary valid "
        f"{bundle.valid_net!r}")


def _insert_sink_skid(circuit: Circuit, bundle: RVBoundaryBundle) -> None:
    """sink side: insert a skid buffer behind the boundary ports."""
    top = circuit.top_module
    skid = make_skid_buffer(bundle.width)
    if skid.name not in circuit.modules:
        circuit.add_module(skid)
    inst = top.fresh_name(f"skid_{bundle.prefix}")

    # consumers of the boundary valid/bits now read the skid's deq side
    def redirect(leaf):
        if isinstance(leaf, Ref) and leaf.name == bundle.valid_net:
            return InstPort(inst, "deq_valid", 1)
        if isinstance(leaf, Ref) and leaf.name == bundle.bits_net:
            return InstPort(inst, "deq_bits", bundle.width)
        return leaf

    _rewrite_module_exprs(top, redirect)

    # the original ready driver now backs the skid's deq_ready; the
    # boundary ready port advertises the skid's conservative enq_ready
    ready_driver = None
    for i, s in enumerate(top.stmts):
        if isinstance(s, Connect) and isinstance(s.target, LocalTarget) \
                and s.target.name == bundle.ready_net:
            ready_driver = s
            top.stmts[i] = Connect(InstTarget(inst, "deq_ready"), s.expr)
            break
    if ready_driver is None:
        raise CompileError(
            f"{circuit.top}: no driver found for boundary ready "
            f"{bundle.ready_net!r}")

    top.stmts.append(DefInstance(inst, skid.name))
    top.stmts.append(Connect(InstTarget(inst, "enq_valid"),
                             Ref(bundle.valid_net, 1)))
    top.stmts.append(Connect(InstTarget(inst, "enq_bits"),
                             Ref(bundle.bits_net, bundle.width)))
    top.stmts.append(Connect(LocalTarget(bundle.ready_net),
                             InstPort(inst, "enq_ready", 1)))
