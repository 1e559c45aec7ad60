"""Compiled partition step functions: JIT for the wavefront hot loop.

The precompiled wavefront schedule (`partitioned._compile_schedule`)
already resolves the static topology into flat op lists, but the
interpreter (`_run_unit`) still *walks* those lists for every unit on
every pass: method dispatch into ``try_fire_outputs``, outbox list
churn, per-token dict lookups, and one redundant RTL ``eval`` per fired
output channel.  This module instead *generates* one straight-line
Python step function per partition from its :class:`_PartPlan` and
``exec``-compiles it — the same strategy the RTL engine uses for its
comb/tick functions, lifted one layer up, and the same move GSIM and
LightningSimV2 make for single-node simulation rate.

What the generated function inlines:

* **source feeding** — the empty-queue check and packed refill per
  source-fed input channel;
* **unit firing** — the LI-BDN fire FSM per output channel: dep-queue
  readiness, env pokes by precomputed ``(port, offset, mask)`` fields,
  the compiled comb function, and word packing, with the outbox
  bypassed entirely (the fired word flows to the timing op through a
  local);
* **redundant-eval elision** — ``eval`` is a pure function of the
  signal env and register/memory state, so a fire whose output channel
  has no comb deps only needs an eval when something changed since the
  last settle (a dep poke or a ``tick``).  A per-unit settled flag makes
  every later no-dep fire of the same settle a pure re-pack — in fast
  mode this collapses k+1 evals per target cycle to 1;
* **the timing overlay** — serdes/occupancy/wire/credit arithmetic with
  every per-op constant folded into a float literal, the credit-window
  lookup bound to the live consume deque, and busy-cursor/span
  accumulation carried in locals (written back once per call);
* **token pushes** — repack plans emitted as literal bit-move
  expressions, destination channel/arrival queues bound directly for
  local deliveries, the router's ``deliver_remote`` bound for the
  process backends, and a hardened or faulted link's ``transmit`` and
  a switch fabric's ``traverse`` called out to (the call-out rule
  below);
* **the advance** — input pops, pokes, comb+tick, fire-FSM re-arm and
  target-cycle bump.

Dep-free units (NoC routers, FAST-extracted tiles) additionally take
the **fused RTL kernel tier**: per-unit ``fire``/``cyc`` functions
compiled from the flattened elaboration that evaluate only the live
cone of the output/tick references, carry every intermediate in
locals, and commit just registers/memories back to the env
(:func:`repro.rtl.kernel.compile_kernel`, which optimises the cone as
a netlist before printing it; cached as ``unit._stepjit_kernels``).
The ``cyc`` kernel also reports whether the register/memory state
reached a fixed point — while it holds and the unit's inputs repeat,
the step function skips RTL evaluation entirely and replays the cached
output words (exact: pure logic over equal state and equal inputs
cannot differ).  :mod:`repro.rtl.kernel` states each pass's soundness
rule and the env staleness contract this buys speed with.

**The hook-set rule.**  The step function is generated for the sinks
that are attached when it is compiled (DESIGN "The compiled step
plane" says when that is): a live tracer gets its ``TraceEvent``
construction and the pre-bound ``tracer.emit`` generated in at the
interpreter's seven emit sites, live telemetry gets its counter incs
and the depth observe, and a null sink gets nothing — no emit, no
binding, no flag check.  An observed partition therefore runs the same
code as a clean one plus exactly what it asked for, on both tiers:

=================  ================================  ================
event              interpreter site                  instrument
=================  ================================  ================
``channel_fire``   ``LIBDNHost.try_fire_outputs``
``credit_stall``   ``_run_unit``, credit wait > 0    ``credit_stalls``
``bridge_output``  ``_run_unit``, bridge tap         ``bridge_outputs``
``token_tx``       ``_run_unit``, token on the wire  ``tokens_tx``
``token_rx``       ``apply_link_delivery``           ``tokens_rx``,
                                                     ``rx_depth``
``target_cycle``   ``_run_unit``, timed advance
``advance``        ``LIBDNHost.advance``
``link_retry``     ``ReliableLinkLayer.transmit``
=================  ================================  ================

The wrapper's two come out of ``_emit_fire`` / ``_emit_kernel_fire``
(replay path included) and ``_emit_advance``, ``target_cycle`` out of
``_emit_advance_timing``, the rest out of ``_emit_out_op`` /
``_emit_delivery`` — except ``link_retry``, which the reliable layer
emits itself inside the ``link.transmit`` call-out, as it does under
the interpreter.  Same order, same field values (the wrapper's
clock is the partition's busy cursor, carried in the ``busy`` local),
and each instrument is created on first use through the interpreter's
own caches (``_UnitPlan.ctr_*``, ``sim._rx_instruments``), so the
registry snapshot lists the same instruments and a fallback pass
increments the same objects.  Events and samples read only the timing
overlay and the cycle counters, never the RTL env, so the kernel
tier's stale-comb-env contract does not touch them.  The sampler
itself runs where it always did: ``_step_partition`` calls
``telemetry.on_pass`` after the step function returns.

**The call-out rule.**  Nothing attached to a run selects its engine.
A reliability layer, a fault injector and a switch fabric are stateful
objects with their own checkpoint, stats and trace contracts, so they
are called, not inlined: ``_emit_out_op`` prints ``switch.traverse``
and ``link.transmit(depart, word, codec)`` at the points ``_run_unit``
makes them (busy cursor published first — ``transmit`` can raise
``LinkGiveUpError``) and reads ``retries`` / ``retry_delay_ns`` /
``delivered`` / ``word`` back from the result.  The token crosses the
hook path as it crosses a clean wire, as a packed word, so the peer
repack is the same literal bit moves.  :func:`partition_jit_reason`
keeps the two reasons a *unit* cannot be compiled (no
``step_bindings``; RTL engine built ``compiled=False``), and a runtime
guard keeps compiled partitions exact: a unit whose outbox is
unexpectedly non-empty (e.g. a checkpoint captured mid-``host_step``)
delegates that pass to the interpreter — otherwise the differential
reference and the ``stepjit=False`` / ``REPRO_STEPJIT=0`` /
``--no-jit`` engine.  Both tiers carry a settle across passes (never
across ``run()`` entries), which is why ``run``'s ``stop`` callbacks
observe and do not write.

Bit-exactness contract: for every partition the compiled function
performs the *same mutations in the same order* as ``_run_unit`` — same
float-op associativity in the timing math, same deque traffic, same
fired/arrival/credit bookkeeping — so ``SimulationResult`` (including
``detail``) and all checkpointable state are bit-identical with the
JIT on or off, on every backend — and so are the recorded event list
and ``detail["telemetry"]`` when sinks are live.  The differential
tests in ``tests/fuzz/test_stepjit_corpus.py`` and
``tests/harness/test_stepjit.py`` pin exactly that.

Selection: ``REPRO_STEPJIT=0`` (or ``off``/``false``/``no``) disables
the JIT globally; ``PartitionedSimulation.stepjit`` (the CLI's
``--no-jit``) overrides per simulation.  ``repro jit --dump`` prints
the generated source.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.tracer import TraceEvent
from ..rtl.kernel import pack_expr, unit_kernels

__all__ = [
    "stepjit_enabled",
    "partition_jit_reason",
    "compile_step_functions",
    "generate_partition_source",
    "generate_sources",
]

_FALSEY = frozenset(("0", "off", "false", "no"))


def stepjit_enabled(sim=None) -> bool:
    """Resolve the JIT on/off decision: per-sim override first
    (``sim.stepjit``), then ``REPRO_STEPJIT`` (default: on)."""
    override = getattr(sim, "stepjit", None) if sim is not None else None
    if override is not None:
        return bool(override)
    value = os.environ.get("REPRO_STEPJIT", "").strip().lower()
    return value not in _FALSEY


# --------------------------------------------------------------------------
# eligibility: the two structural reasons
# --------------------------------------------------------------------------


def partition_jit_reason(sim, pplan) -> Optional[str]:
    """Why a partition must stay on the interpreter (None = JIT-able).

    Only a unit itself can disqualify it; nothing attached to a run
    does (live sinks are compiled in, hardened or faulted links and
    switch hops are call-outs)."""
    for up in pplan.unit_plans:
        unit = up.unit
        label = f"{up.prefix}{unit.name}"
        if getattr(unit, "step_bindings", None) is None:
            return f"{label}: host exposes no step_bindings fast path"
        rtl = getattr(unit, "sim", None)
        if rtl is None or not getattr(rtl, "compiled", False):
            return f"{label}: RTL engine runs interpreted (compiled=False)"
    return None


# --------------------------------------------------------------------------
# code generation
# --------------------------------------------------------------------------


class _Binder:
    """Assigns stable generated names to pre-bound Python objects.

    Objects are deduplicated by identity, so e.g. an arrival deque that
    is both a fire dependency and an advance input binds once."""

    def __init__(self):
        self.values: Dict[str, object] = {}
        self._by_id: Dict[int, str] = {}
        self._n = 0

    def bind(self, obj, hint: str = "g") -> str:
        name = self._by_id.get(id(obj))
        if name is None:
            name = f"_{hint}{self._n}"
            self._n += 1
            self._by_id[id(obj)] = name
            self.values[name] = obj
        return name


class _Writer:
    def __init__(self):
        self.lines: List[str] = []

    def emit(self, level: int, text: str) -> None:
        self.lines.append("    " * level + text)


def _f(value: float) -> str:
    """Float literal that round-trips exactly (repr contract)."""
    return repr(float(value))


def _field(word: str, offset: int, mask: int) -> str:
    """One port's value out of a packed word, as source."""
    return f"({word} >> {offset}) & {mask}" if offset else f"{word} & {mask}"


def _unpack_lines(env: str, word: str, fields) -> List[str]:
    return [f"{env}[{port!r}] = {_field(word, offset, mask)}"
            for port, offset, mask in fields]


def _repack_expr(word: str, plan) -> str:
    """Inline a repack plan's bit moves (``plan`` is a tuple of
    ``(src_offset, mask, dst_offset)`` moves; identity is handled by
    the caller)."""
    return " | ".join(
        f"({_field(word, s_off, mask)})" + (f" << {d_off}" if d_off else "")
        for s_off, mask, d_off in plan) or "0"


def _token_dict_expr(word: str, fields) -> str:
    """Inline ``codec.decode(word)`` as a dict literal (same key order:
    spec order)."""
    return "{" + ", ".join(f"{port!r}: {_field(word, offset, mask)}"
                           for port, offset, mask in fields) + "}"


class _PartitionCodegen:
    """Emits one partition's ``_step(target_cycles)`` function."""

    def __init__(self, sim, pplan):
        self.sim = sim
        self.pplan = pplan
        self.b = _Binder()
        self.w = _Writer()
        part = pplan.part
        b = self.b
        self.PT = b.bind(part, "pt")
        self.SP = b.bind(part.hooks.spans, "sp")
        self.SIM = b.bind(sim, "sm")
        self.RI = b.bind(sim._run_unit, "ri")
        self.LEN = b.bind(len, "len")
        self.RANGE = b.bind(range, "rng")
        router = sim.router
        self.RC = (b.bind(router.consumed, "rc")
                   if router is not None else None)
        self.router = router
        #: generic-tier unit index -> its plan's settle cell (``[0]``
        #: rides in a local).  Kernel-tier units index theirs in place.
        self.settle_cells: Dict[int, list] = {}
        #: unit indexes running on fused RTL kernels (for the report)
        self.kernel_units: List[int] = []
        #: the attached hook set, fixed for this compile: a live sink
        #: gets its emit sites compiled in, a null sink binds nothing
        #: and emits nothing
        self.trace = sim._trace
        self.metrics = sim._metrics_on
        if self.trace:
            self.EV = b.bind(TraceEvent, "ev")
            self.EM = b.bind(sim.tracer.emit, "em")
        if self.metrics:
            registry = sim.telemetry.registry
            self.RGC = b.bind(registry.counter, "rgc")
            self.RGH = b.bind(registry.histogram, "rgh")
            self.RX = b.bind(sim._rx_instruments, "rx")
            self.RXG = b.bind(sim._rx_instruments.get, "rxg")

    # -- fragments --------------------------------------------------------

    def _emit_feed(self, L: int, source_ops) -> None:
        """Source feeding: the ``_feed_sources`` body, inlined."""
        w, b = self.w, self.b
        for key, channel, source, unit in source_ops:
            SQ = b.bind(channel.queue, "sq")
            CH = b.bind(channel, "ch")
            NW = b.bind(source.next_word, "nw")
            SU = b.bind(unit, "u")
            CD = b.bind(channel.codec, "cd")
            AQ = b.bind(self.sim._arrivals[key], "aq")
            w.emit(L, f"if not {SQ}:")
            w.emit(L + 1, f"{SQ}.append({NW}({SU}.target_cycle, {CD}))")
            w.emit(L + 1, f"{CH}.total_enqueued += 1")
            w.emit(L + 1, f"{AQ}.append(0.0)")

    def _cursor_stmts(self, load: bool) -> List[str]:
        """The cursors a step carries in locals — the partition's busy
        cursor, its FMR spans, the simulation's token count — loaded
        from (or stored back to) the objects that own them."""
        pairs = [("busy", f"{self.PT}.busy_until"),
                 ("lw", f"{self.SP}.link_wait_ns"),
                 ("cs", f"{self.SP}.credit_stall_ns"),
                 ("sd", f"{self.SP}.serdes_ns"),
                 ("cp", f"{self.SP}.compute_ns"),
                 ("sy", f"{self.SP}.sync_ns"),
                 ("tt", f"{self.SIM}.total_tokens")]
        return [f"{local} = {attr}" if load else f"{attr} = {local}"
                for local, attr in pairs]

    def _emit_event(self, L: int, kind: str, ts: str, dur: str,
                    part: str, scope: str, args: str) -> None:
        """One trace emit site (live tracer only): the interpreter's
        ``tracer.emit(TraceEvent(...))`` with the static fields folded
        to literals; ``ts``/``dur``/``args`` are source expressions."""
        if self.trace:
            self.w.emit(L, f"{self.EM}({self.EV}({kind!r}, {ts}, {dur}, "
                           f"{part!r}, {scope!r}, {args}))")

    def _emit_count(self, L: int, up, attr: str, name: str) -> None:
        """One per-unit counter inc (live telemetry only).  The counter
        is created on first use through the ``_UnitPlan`` cache the
        interpreter fills, so an instrument exists exactly when the
        interpreter would have created it and a fallback pass through
        ``_run_unit`` increments the same object."""
        if self.metrics:
            w = self.w
            UP = self.b.bind(up, "up")
            w.emit(L, f"_ct = {UP}.{attr}")
            w.emit(L, "if _ct is None:")
            w.emit(L + 1, f"_ct = {UP}.{attr} = "
                          f"{self.RGC}({name!r}, {up.part.name!r})")
            w.emit(L, "_ct.inc()")

    def _emit_wrapper_event(self, L: int, kind: str, up, scope: str
                            ) -> None:
        """``channel_fire`` / ``advance``: the events the LI-BDN
        wrapper emits from inside ``try_fire_outputs`` / ``advance``.
        Its clock reads the partition's busy cursor, which the
        generated code carries in ``busy``."""
        U = self.b.bind(up.unit, "u")
        self._emit_event(L, kind, "busy", "0.0", up.unit.name, scope,
                         f'{{"cycle": {U}.target_cycle}}')

    def _emit_fire(self, L: int, uid: int, j: int, entry, names: dict
                   ) -> None:
        """One output channel's fire FSM (try_fire_outputs, inlined;
        the fired word is kept in a local instead of the outbox)."""
        w, b = self.w, self.b
        name, out_ch, dep_plans, pack_fields = entry
        F, ENV, MEMS, C = (names["F"], names["ENV"], names["MEMS"],
                           names["C"])
        OQ = b.bind(out_ch.queue, "oq")
        OC = b.bind(out_ch, "oc")
        wvar = f"w{uid}_{j}"
        w.emit(L, f"if not {F}[{name!r}]:")
        if dep_plans:
            cond = " and ".join(b.bind(dc.queue, "dq")
                                for dc, _ in dep_plans)
            w.emit(L + 1, f"if {cond}:")
            Lf = L + 2
            for dep_ch, fields in dep_plans:
                DQ = b.bind(dep_ch.queue, "dq")
                if fields:
                    w.emit(Lf, f"_h = {DQ}[0]")
                    for line in _unpack_lines(ENV, "_h", fields):
                        w.emit(Lf, line)
            w.emit(Lf, f"{C}({ENV}, {MEMS})")
            w.emit(Lf, f"stl{uid} = True")
        else:
            Lf = L + 1
            w.emit(Lf, f"if not stl{uid}:")
            w.emit(Lf + 1, f"{C}({ENV}, {MEMS})")
            w.emit(Lf + 1, f"stl{uid} = True")
        w.emit(Lf, f"{wvar} = "
               + pack_expr(lambda port: f"{ENV}[{port!r}]", pack_fields))
        w.emit(Lf, f"{OQ}.append({wvar})")
        w.emit(Lf, f"{OC}.total_enqueued += 1")
        w.emit(Lf, f"{F}[{name!r}] = True")
        w.emit(Lf, "progress = True")
        self._emit_wrapper_event(Lf, "channel_fire", names["up"], name)

    def _emit_credit(self, L: int, op) -> None:
        """Credit-window stall + single-feeder trim (the interpreter's
        channel_capacity block, with the consume deque pre-bound)."""
        w, b, sim = self.w, self.b, self.sim
        link = op.link
        LK = b.bind(link, "lk")
        CQ = b.bind(op.consume_q, "cq")
        CB = b.bind(sim._consume_base, "cb")
        CBG = b.bind(sim._consume_base.get, "cbg")
        DK = b.bind(link.dst, "dk")
        cap = sim.channel_capacity
        w.emit(L, f"_ci = {LK}.tokens - {cap}")
        w.emit(L, "if _ci >= 0:")
        w.emit(L + 1, f"_rel = _ci - {CBG}({DK}, 0)")
        w.emit(L + 1, f"_ln = {self.LEN}({CQ})")
        w.emit(L + 1, "if 0 <= _rel < _ln:")
        w.emit(L + 2, f"_c = {CQ}[_rel]")
        w.emit(L + 2, "if _c > _st:")
        w.emit(L + 3, "_st = _c")
        w.emit(L + 1, "elif _rel >= _ln and _ln:")
        w.emit(L + 2, f"_c = {CQ}[-1]")
        w.emit(L + 2, "if _c > _st:")
        w.emit(L + 3, "_st = _c")
        if sim._dst_link_count.get(link.dst) == 1:
            w.emit(L + 1, "if _rel > 0 and _ln:")
            w.emit(L + 2, "_d = _rel if _rel < _ln - 1 else _ln - 1")
            w.emit(L + 2, f"for _x in {self.RANGE}(_d):")
            w.emit(L + 3, f"{CQ}.popleft()")
            w.emit(L + 2, f"{CB}[{DK}] = {CBG}({DK}, 0) + _d")

    def _emit_out_op(self, L: int, uid: int, j: int, up, op) -> None:
        """One fired token's timing + delivery (the drain half of
        ``_run_unit``'s while body, for one op)."""
        w, b, sim = self.w, self.b, self.sim
        part = self.pplan.part
        wvar = f"w{uid}_{j}"
        w.emit(L, f"if {wvar} is not None:")
        Lo = L + 1
        # dependent-input arrival wait (link_wait span)
        w.emit(Lo, "_da = 0.0")
        for key in op.dep_keys:
            DQ = b.bind(sim._arrivals[key], "aq")
            w.emit(Lo, f"if {DQ} and {DQ}[0] > _da:")
            w.emit(Lo + 1, f"_da = {DQ}[0]")
        w.emit(Lo, "_ds = busy if busy > _da else _da")
        w.emit(Lo, "lw += _ds - busy")
        link = op.link
        if link is None:
            # bridge tap: drained by wide DMA batches, effectively free
            w.emit(Lo, "busy = _ds")
            self._emit_count(Lo, up, "ctr_bridge", "bridge_outputs")
            if sim.record_outputs:
                OL = b.bind(sim.output_log, "ol")
                OLG = b.bind(sim.output_log.get, "olg")
                BK = b.bind((part.name, op.full), "bk")
                w.emit(Lo, f"_l = {OLG}({BK})")
                w.emit(Lo, "if _l is None:")
                w.emit(Lo + 1, f"_l = {OL}[{BK}] = []")
                w.emit(Lo, "_l.append("
                       + _token_dict_expr(wvar, op.codec.fields) + ")")
            self._emit_event(
                Lo, "bridge_output", "_ds", "0.0", part.name, op.full,
                f'{{"cycle": {b.bind(up.unit, "u")}.target_cycle}}')
            return
        w.emit(Lo, "_st = _ds")
        LK = b.bind(link, "lk")
        credited = sim.channel_capacity is not None
        if credited:
            self._emit_credit(Lo, op)
        if credited and (self.trace or self.metrics):
            # only a credit window can make the wait non-zero
            w.emit(Lo, "_cw = _st - _ds")
            w.emit(Lo, "cs += _cw")
            w.emit(Lo, "if _cw:")
            self._emit_count(Lo + 1, up, "ctr_stall", "credit_stalls")
            self._emit_event(
                Lo + 1, "credit_stall", "_ds", "_cw", part.name, op.full,
                f'{{"link": {link.key!r}, "tokens": {LK}.tokens}}')
        else:
            w.emit(Lo, "cs += _st - _ds")
        w.emit(Lo, f"sd += {_f(op.tx_ns)}")
        w.emit(Lo, f"busy = _st + {_f(op.tx_ns)}")
        w.emit(Lo, f"_nf = {LK}.next_free")
        w.emit(Lo, "_dep = busy if busy > _nf else _nf")
        occ = _f(op.occupancy_ns)
        w.emit(Lo, f"{LK}.next_free = _dep + {occ}")
        if op.switch is not None:
            # switched Ethernet: contend on the shared backplane
            SW = b.bind(op.switch.traverse, "sw")
            w.emit(Lo, f"_dep = {SW}(_dep, {op.width})")
        if op.clean:
            # ideal lossless wire: the outcome is the precompiled
            # constants
            w.emit(Lo, f"_arr = _dep + {_f(op.wire_ns)}")
            word, held = wvar, occ
            outcome = '"retries": 0, "retry_delay_ns": 0.0}'
        else:
            # reliability layer / fault injector: ``link.transmit`` is
            # a call-out, made where the interpreter makes it and with
            # the partition's cursor published as the interpreter has
            # it by then (the call runs foreign code and can raise
            # ``LinkGiveUpError``); retransmissions hold the link busy
            # beyond the clean occupancy window
            TX = b.bind(link.transmit, "tx")
            CD = b.bind(op.codec, "cd")
            w.emit(Lo, f"{self.PT}.busy_until = busy")
            w.emit(Lo, f"_r = {TX}(_dep, {wvar}, {CD})")
            w.emit(Lo, "_arr = _r.arrive_ns")
            w.emit(Lo, "_rd = _r.retry_delay_ns")
            w.emit(Lo, "_rw = _r.word")
            w.emit(Lo, f"{LK}.next_free += _rd")
            word, held = "_rw", f"{occ} + _rd"
            outcome = '"retries": _r.retries, "retry_delay_ns": _rd}'
        if op.repack is not None:
            w.emit(Lo, f"_mw = {_repack_expr(word, op.repack)}")
            word = "_mw"
        w.emit(Lo, f"{LK}.busy_ns += {held}")
        self._emit_event(
            Lo, "token_tx", "_st", repr(op.tx_ns), part.name, op.full,
            f'{{"link": {link.key!r}, "width": {op.width!r}, '
            f'"serdes_ns": {op.tx_ns!r}, "wire_ns": {op.wire_ns!r}, '
            f'"occupancy_ns": {op.occupancy_ns!r}, '
            f'"queue_wait_ns": _dep - busy, ' + outcome)
        if op.clean:
            self._emit_delivery(Lo, op, word)
        else:
            w.emit(Lo, "if _r.delivered:")
            self._emit_delivery(Lo + 1, op, word)
            w.emit(Lo, "else:")
            w.emit(Lo + 1, f"{self.SIM}.dropped_tokens += 1")
        w.emit(Lo, f"{LK}.tokens += 1")
        w.emit(Lo, "tt += 1")
        self._emit_count(Lo, up, "ctr_tx", "tokens_tx")

    def _emit_delivery(self, Lo: int, op, mw: str) -> None:
        """Hand the repacked word ``mw`` to the destination: the
        router's ``deliver_remote`` for a peer process, otherwise
        ``apply_link_delivery`` inlined."""
        w, b, sim = self.w, self.b, self.sim
        link = op.link
        LK = b.bind(link, "lk")
        rx = _f(op.rx_ns)
        if self.router is not None \
                and not self.router.is_local(op.dst_part_name):
            RD = b.bind(self.router.deliver_remote, "rd")
            w.emit(Lo, f"{RD}({LK}, {mw}, _arr + {rx}, {rx})")
            return
        dst_ch = sim._in_channel_by_key[link.dst]
        DQ2 = b.bind(dst_ch.queue, "xq")
        DC = b.bind(dst_ch, "xc")
        AQ2 = b.bind(sim._arrivals[link.dst], "aq")
        DH = b.bind(link.depth_hist, "dh")
        DHG = b.bind(link.depth_hist.get, "dhg")
        w.emit(Lo, f"{DQ2}.append({mw})")
        w.emit(Lo, f"{DC}.total_enqueued += 1")
        w.emit(Lo, f"{AQ2}.append(_arr + {rx})")
        w.emit(Lo, f"_d = {self.LEN}({AQ2})")
        w.emit(Lo, f"{DH}[_d] = {DHG}(_d, 0) + 1")
        if self.metrics:
            # the receiving partition's pair, created on first
            # delivery through the cache apply_link_delivery fills
            dp = link.dst[0]
            w.emit(Lo, f"_i = {self.RXG}({dp!r})")
            w.emit(Lo, "if _i is None:")
            w.emit(Lo + 1, f"_i = {self.RX}[{dp!r}] = ("
                           f"{self.RGC}('tokens_rx', {dp!r}), "
                           f"{self.RGH}('rx_depth', {dp!r}))")
            w.emit(Lo, "_i[0].inc()")
            w.emit(Lo, "_i[1].observe(_d)")
        self._emit_event(
            Lo, "token_rx", f"_arr + {rx}", "0.0", link.dst[0],
            link.dst[1],
            f'{{"link": {link.key!r}, "rx_serdes_ns": {op.rx_ns!r}, '
            f'"depth": _d}}')

    def _emit_advance_timing(self, La: int, up) -> None:
        """The advance's timing bookkeeping: arrival pops, link-wait
        and compute spans, credit consume records, busy cursor."""
        w, b, sim = self.w, self.b, self.sim
        part = up.part
        w.emit(La, "_ir = 0.0")
        for key in up.in_keys:
            IA = b.bind(sim._arrivals[key], "aq")
            w.emit(La, f"if {IA}:")
            w.emit(La + 1, f"_a = {IA}.popleft()")
            w.emit(La + 1, "if _a > _ir:")
            w.emit(La + 2, "_ir = _a")
        w.emit(La, "_st = busy if busy > _ir else _ir")
        w.emit(La, "lw += _st - busy")
        hc = _f(up.host_cycle_ns)
        if sim.channel_capacity is not None and up.consume_keys:
            w.emit(La, f"_cn = _st + {hc}")
            for key in up.consume_keys:
                CT = b.bind(sim._consume_times[key], "cq")
                w.emit(La, f"{CT}.append(_cn)")
                if self.RC is not None:
                    CK = b.bind(key, "ck")
                    w.emit(La, f"{self.RC}({CK}, _cn)")
        w.emit(La, f"cp += {hc}")
        ovh = part.advance_overhead_ns
        if ovh:
            w.emit(La, f"sy += {_f(ovh)}")
        self._emit_event(
            La, "target_cycle", "_st",
            repr(up.host_cycle_ns + part.advance_overhead_ns),
            part.name, up.prefix + up.unit.name,
            f'{{"cycle": {b.bind(up.unit, "u")}.target_cycle, '
            f'"input_wait_ns": _st - busy}}')
        if ovh:
            w.emit(La, f"busy = _st + {hc} + {_f(ovh)}")
        else:
            w.emit(La, f"busy = _st + {hc}")

    def _emit_advance(self, L: int, up, names: dict, dirty: List[str],
                      settle: Optional[List[str]] = None,
                      keyword: str = "if") -> None:
        """The fireFSM advance (``unit.advance()``, inlined): timing,
        input pops + pokes, the tier's ``settle`` lines, re-arm, cycle
        bumps; ``dirty`` closes the block.  ``settle=None`` prints the
        kernel tier's fused advance instead (``if _tk:``): the ``cyc``
        kernel already ticked over inputs that repeat, and the fire's
        enqueue cancelled the re-arm's dequeue."""
        w, b = self.w, self.b
        F, ENV = names["F"], names["ENV"]
        fused = settle is None
        in_qs = [b.bind(ch.queue, "iq") for ch, _ in names["in_plans"]]
        conds = [f"{F}[{e[0]!r}]" for e in names["fire_plans"]] + in_qs
        w.emit(L, "if _tk:" if fused else f"{keyword} "
               + (" and ".join(conds) if conds else "True") + ":")
        La = L + 1
        self._emit_advance_timing(La, up)
        for iq, (_ch, fields) in zip(in_qs, names["in_plans"]):
            w.emit(La, f"{iq}.popleft()" if fused
                   else f"_w = {iq}.popleft()")
            for line in () if fused else _unpack_lines(ENV, "_w", fields):
                w.emit(La, line)
        for line in settle or ():
            w.emit(La, line)
        w.emit(La, f"{names['RTL']}.cycle += 1")
        if not fused:
            for n in up.unit._fired:
                w.emit(La, f"{F}[{n!r}] = False")
            for ch in names["out_channels"]:
                OQ = b.bind(ch.queue, "oq")
                w.emit(La, f"if {OQ}:")
                w.emit(La + 1, f"{OQ}.popleft()")
        w.emit(La, f"{names['U']}.target_cycle += 1")
        self._emit_wrapper_event(La, "advance", up, "")
        w.emit(La, "progress = True")
        for line in dirty:
            w.emit(La, line)

    def _emit_kernel_fire(self, Lb: int, uid: int, up, names: dict
                          ) -> None:
        """Kernel-tier fire fragment.  When the pending input words
        equal the currently-poked values (every field), the fire and
        the advance share ONE settle (the ``cyc`` kernel, ``_tk``) —
        replayed from the quiescence cell while the tick sits at a
        fixed point — otherwise the cone-reduced ``fire`` kernel runs
        and the advance settles again after the pokes."""
        w, b = self.w, self.b
        F, ENV, MEMS, KF, KC, QS, in_qs = (names[n] for n in (
            "F", "ENV", "MEMS", "KF", "KC", "QS", "in_qs"))
        fire_plans = names["fire_plans"]
        k = len(fire_plans)
        wvars = ", ".join(f"w{uid}_{j}" for j in range(k))
        w.emit(Lb, f"if not {F}[{fire_plans[0][0]!r}]:")
        Lf = Lb + 1
        # fused-settle eligibility: every pending input word decodes
        # to the value its port already holds
        eq_terms: List[str] = []
        peeks: List[str] = []
        for i, (_ch, fields) in enumerate(names["in_plans"]):
            hv = f"_h{i}"
            peeks.append(f"{hv} = {in_qs[i]}[0]")
            eq_terms += [f"{ENV}[{port!r}] == {_field(hv, off, msk)}"
                         for port, off, msk in fields]
        if in_qs:
            w.emit(Lf, "if " + " and ".join(in_qs) + ":")
            for line in peeks:
                w.emit(Lf + 1, line)
            w.emit(Lf + 1, "_tk = "
                   + (" and ".join(eq_terms) if eq_terms else "True"))
        else:
            w.emit(Lf, "_tk = True")
        w.emit(Lf, "if _tk:")
        w.emit(Lf + 1, f"if {QS}[0]:")
        for j in range(k):
            w.emit(Lf + 2, f"w{uid}_{j} = {QS}[{j + 1}]")
        w.emit(Lf + 1, "else:")
        w.emit(Lf + 2, f"{wvars}, _cv = {KC}({ENV}, {MEMS})")
        w.emit(Lf + 2, f"{QS}[0] = _cv")
        for j in range(k):
            w.emit(Lf + 2, f"{QS}[{j + 1}] = w{uid}_{j}")
        for entry in fire_plans:
            OC = b.bind(entry[1], "oc")
            # the fire's enqueue and the advance's dequeue cancel;
            # only the channel's token counter survives
            w.emit(Lf + 1, f"{OC}.total_enqueued += 1")
        w.emit(Lf, "else:")
        w.emit(Lf + 1, f"{wvars} = {KF}({ENV}, {MEMS})")
        w.emit(Lf + 1, f"{QS}[0] = False")
        for j, entry in enumerate(fire_plans):
            OQ = b.bind(entry[1].queue, "oq")
            OC = b.bind(entry[1], "oc")
            w.emit(Lf + 1, f"{OQ}.append(w{uid}_{j})")
            w.emit(Lf + 1, f"{OC}.total_enqueued += 1")
            w.emit(Lf + 1, f"{F}[{entry[0]!r}] = True")
        w.emit(Lf, "progress = True")
        for entry in fire_plans:
            self._emit_wrapper_event(Lf, "channel_fire", up, entry[0])

    def _emit_unit(self, L: int, uid: int, up) -> None:
        """One unit's pass, both tiers: header, outbox guard +
        interpreter fallback, fire, out-ops, advance.  A
        tier supplies only its fire fragment and the advance's
        ``settle`` lines (``stale`` drops the settle it carries across
        passes): the generic tier the engine's ``comb``/``tick`` pair
        behind a settled flag; the kernel tier (dep-free units on a
        compiled engine) fused, cone-reduced RTL kernels plus the fused
        single-settle advance ahead of the shared split-path one."""
        w, b = self.w, self.b
        unit = up.unit
        bindings = unit.step_bindings()
        names = {
            "U": b.bind(unit, "u"),
            "F": b.bind(bindings["fired"], "f"),
            "ENV": b.bind(bindings["env"], "e"),
            "MEMS": b.bind(bindings["mems"], "mm"),
            "RTL": b.bind(bindings["rtl"], "r"),
            "fire_plans": bindings["fire_plans"],
            "in_plans": bindings["in_plans"],
            "out_channels": bindings["out_channels"],
            "up": up,
        }
        U, F = names["U"], names["F"]
        settle_args = f"({names['ENV']}, {names['MEMS']})"
        fire_plans = names["fire_plans"]
        k = len(fire_plans)
        # runtime guard: a non-empty outbox means state the generated
        # code does not model (e.g. a checkpoint captured between a fire
        # and its drain) — delegate this unit's pass to the interpreter
        guard = f"{U}.outbox"
        kernel = bindings["rtl"].compiled \
            and all(not entry[2] for entry in fire_plans)
        if kernel:
            # cached on the unit: the elaboration and channel layouts
            # are immutable per host
            kern = getattr(unit, "_stepjit_kernels", None)
            if kern is None:
                kern = unit._stepjit_kernels = unit_kernels(
                    unit.sim.elab, [e[3] for e in fire_plans], unit.name)
            self.kernel_units.append(uid)
            if k:
                names["KF"] = b.bind(kern[0], "kf")
                # the split-path advance calls cyc too, words ignored
                KA = names["KC"] = b.bind(kern[2], "kc")
            else:
                KA = b.bind(kern[1], "ka")
            names["in_qs"] = [b.bind(ch.queue, "iq")
                              for ch, _ in names["in_plans"]]
            stale = []
            if k:
                #: quiescence cell: converged plus cached words means
                #: the previous settle hit a tick fixed point, so a
                #: repeat-input cycle replays them and skips the kernel
                names["QS"] = b.bind(up.settle, "qs")
                stale = [f"{names['QS']}[0] = False"]
                # non-uniform fire flags: a shape the kernels do not
                # model either
                guard += "".join(
                    f" or {F}[{fire_plans[0][0]!r}] != {F}[{e[0]!r}]"
                    for e in fire_plans[1:])
            # a changed-input tick: the cached words no longer match
            settle, dirty = [KA + settle_args] + stale, []
            w.emit(L, f"# unit {up.prefix}{unit.name}: fused RTL kernels")
        else:
            names["C"] = b.bind(bindings["comb"], "c")
            T = b.bind(bindings["tick"], "t")
            #: settle cell: False means the RTL env may be unsettled
            #: (eval needed before a no-dep fire can re-pack)
            self.settle_cells[uid] = up.settle
            b.bind(up.settle, "dc")
            settle = [names["C"] + settle_args, T + settle_args]
            stale = dirty = [f"stl{uid} = False"]
        w.emit(L, f"if {U}.target_cycle < target_cycles:")
        Lu = L + 1
        w.emit(Lu, f"if {guard}:")
        w.emit(Lu + 1, "; ".join(self._cursor_stmts(load=False)))
        w.emit(Lu + 1, "try:")
        w.emit(Lu + 2, f"if {self.RI}({b.bind(up, 'up')}, target_cycles):")
        w.emit(Lu + 3, "progress = True")
        w.emit(Lu + 1, "finally:")
        w.emit(Lu + 2, "; ".join(self._cursor_stmts(load=True)))
        for line in stale:  # the interpreter moved RTL state
            w.emit(Lu + 1, line)
        w.emit(Lu, "else:")
        Lb = Lu + 1
        for j in range(k):
            w.emit(Lb, f"w{uid}_{j} = None")
        if kernel:
            w.emit(Lb, "_tk = False")
            if k:
                self._emit_kernel_fire(Lb, uid, up, names)
        else:
            for j, entry in enumerate(fire_plans):
                self._emit_fire(Lb, uid, j, entry, names)
        # process fired tokens in fire (outbox) order
        for j, entry in enumerate(fire_plans):
            self._emit_out_op(Lb, uid, j, up, up.out_ops[entry[0]])
        if kernel:
            self._emit_advance(Lb, up, names, dirty)
        self._emit_advance(Lb, up, names, dirty, settle,
                           "elif" if kernel else "if")

    # -- whole function ---------------------------------------------------

    def generate(self) -> Tuple[str, Dict[str, object]]:
        # emit the body first so the binder discovers every name, then
        # assemble the header (bindings ride in as default args: every
        # pre-bound object is a LOAD_FAST in the hot loop)
        Lt = 3  # body statements sit inside ``_step``'s ``try:``
        self._emit_feed(Lt, self.pplan.source_ops)
        for uid, up in enumerate(self.pplan.unit_plans):
            self._emit_unit(Lt, uid, up)
        body, w = self.w.lines, _Writer()
        cells = [(f"stl{uid}", f"{self.b.bind(cell, 'dc')}[0]")
                 for uid, cell in self.settle_cells.items()]
        w.emit(0, "def _make(_B):")
        w.emit(1, "def _step(")
        w.emit(2, "target_cycles,")
        for name in self.b.values:
            w.emit(2, f"{name}=_B[{name!r}],")
        w.emit(1, "):")
        w.emit(2, "progress = False")
        for stmt in self._cursor_stmts(load=True) \
                + [f"{local} = {cell}" for local, cell in cells]:
            w.emit(2, stmt)
        w.emit(2, "try:")
        w.lines.extend(body or ["    " * Lt + "pass"])
        w.emit(2, "finally:")
        for stmt in self._cursor_stmts(load=False) \
                + [f"{cell} = {local}" for local, cell in cells]:
            w.emit(3, stmt)
        w.emit(2, "return progress")
        w.emit(1, "return _step")
        return "\n".join(w.lines) + "\n", dict(self.b.values)


def generate_partition_source(sim, pplan
                              ) -> Tuple[str, Dict[str, object]]:
    """Generate one partition's step-function source plus the binding
    table its default arguments are resolved from.  The caller must
    have checked :func:`partition_jit_reason` first."""
    return _PartitionCodegen(sim, pplan).generate()


def compile_step_functions(sim) -> Tuple[Dict[str, Callable],
                                         Dict[str, str]]:
    """Compile every eligible partition of ``sim``'s current schedule
    into a step function.

    Returns ``(step_fns, report)``: ``step_fns`` maps partition name to
    the compiled ``_step(target_cycles) -> progressed`` callable;
    ``report`` maps every partition to a human-readable compile verdict
    (also stored by the harness as ``last_jit_report``).  Under a
    router (a process worker) only the partition local to it is
    compiled: peers' passes arrive as effect frames."""
    if not stepjit_enabled(sim):
        return {}, {name: "disabled (REPRO_STEPJIT / stepjit override)"
                    for name in sim.partitions}
    fns: Dict[str, Callable] = {}
    report: Dict[str, str] = {}
    router = sim.router
    for pplan in sim.ensure_schedule():
        name = pplan.part.name
        if router is not None and not router.is_local(name):
            report[name] = "skipped: not scheduled in this process"
            continue
        reason = partition_jit_reason(sim, pplan)
        if reason is not None:
            report[name] = f"interpreted: {reason}"
            continue
        cg = _PartitionCodegen(sim, pplan)
        src, bindings = cg.generate()
        namespace: Dict[str, object] = {}
        exec(compile(src, f"<stepjit:{name}>", "exec"), namespace)
        fns[name] = namespace["_make"](bindings)
        report[name] = (f"compiled: {len(pplan.unit_plans)} unit(s) "
                        f"({len(cg.kernel_units)} fused-kernel), "
                        f"{len(src.splitlines())} lines")
    return fns, report


def generate_sources(sim
                     ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
    """Per-partition ``(source, reject_reason)`` for inspection
    (``repro jit --dump``); exactly one of the pair is None."""
    out: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
    for pplan in sim.ensure_schedule():
        reason = partition_jit_reason(sim, pplan)
        src = None if reason else generate_partition_source(sim, pplan)[0]
        out[pplan.part.name] = (src, reason)
    return out
