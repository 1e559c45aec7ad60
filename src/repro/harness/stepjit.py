"""Compiled pass loop: JIT for the wavefront hot loop.

The precompiled wavefront schedule (`partitioned._compile_schedule`)
already resolves the static topology into flat op lists, but the
interpreter (`_run_unit`) still *walks* those lists for every unit on
every pass: method dispatch into ``try_fire_outputs``, fired-list
churn, per-token dict lookups, and one redundant RTL ``eval`` per fired
output channel.  This module instead *generates* one straight-line
function per plane, ``_pass(target_cycles, budget) -> (passes,
progress)``, and ``exec``-compiles it once (the RTL engine's strategy
lifted one layer up; GSIM's and LightningSimV2's move).  Every
partition this process steps is printed in schedule order into one
``while`` loop (Manticore's static BSP schedule, every deque hop and
pass boundary kept) that runs while some unit is short of
``target_cycles``, the last pass made progress and fewer than
``budget`` passes have run.

What a partition's slot inlines (DESIGN "The compiled step plane"):
source feeding; the LI-BDN fire FSM per output channel on fused RTL
kernels (:func:`repro.rtl.kernel.unit_kernels`, memoized on the
elaboration), the fired word flowing to its timing op through a local;
the timing overlay with every per-op constant folded into a float
literal and each partition's busy cursor and spans carried in suffixed
locals (``busy0``, ``lw0``, ...; the token count ``tt`` is shared),
loaded once per call and stored in its ``finally``; token pushes as
literal bit-move repacks into bound destination deques (or the router's
``deliver_remote``); and the advance.  A unit whose input queues all
hold a word at its first fire of a cycle **settles once**: one resume
of its ``cyc`` frame (``_UnitPlan.frame``) over the poked inputs gives
every word and the commit, or a tick fixed point replays the cached
words; any other cycle fires each run of channels sharing a dep set
from its own cone-reduced kernel, and the advance pokes and resumes
``cyc``.  :func:`_settle_rule` says when a unit may settle once, and
:mod:`repro.rtl.kernel` states the env staleness contract this buys
speed with (the pass leaves a dep-carrying unit's output ports holding
the words its channels last fired).

**The hook-set rule.**  The pass is generated for the sinks attached
when it is compiled (DESIGN "The compiled step plane" says when, and
tabulates the emit sites) and prints only what changes per event: a
live tracer's site as a :class:`~repro.observability.tracer.TraceSite`
bound once plus one row ``(site, ts, dur, *dynamic_args)`` appended
through ``tracer.row_sink()``, counted into ``total_emitted`` once per
call; live telemetry the sampler check alone, printed right after each
partition's slot where the interpreter makes it (a run's metrics are
read off the link and unit state the pass keeps anyway, so no
registry is bound and nothing is bumped per token); a null sink
nothing — no row, no binding, no flag check.  Events and samples never
read the RTL env.

**The call-out rule.**  Nothing attached to a run selects its engine:
``link.transmit`` (busy cursor published first) and
``switch.traverse`` are printed as calls where ``_run_unit`` makes
them, and the sampler's ``on_pass`` gets every carried cursor
published before it.  A plane runs wholly printed or wholly
interpreted: :func:`partition_jit_reason` keeps the one reason a unit
cannot be printed (an RTL engine built ``compiled=False``), and one
such unit puts every partition of its plane on the interpreter — the
differential reference and the ``stepjit=False`` engine.  A unit's
frame and quiescence cell ride across passes, never across ``run()``
entries, which is why ``run``'s ``stop`` callbacks observe and do not
write.

Bit-exactness contract: for every partition the compiled pass
performs the *same mutations in the same order* as ``_run_unit``, so
``SimulationResult`` (``detail`` included), checkpointable state, the
event list and ``detail["telemetry"]`` are bit-identical with the JIT
on or off, on every backend (``tests/fuzz/test_stepjit_corpus.py``,
``tests/harness/test_stepjit.py``).

Selection: ``REPRO_STEPJIT=0`` (or ``off``/``false``/``no``) disables
the JIT globally; ``PartitionedSimulation.stepjit`` (the CLI's
``--no-jit``) overrides per simulation.  ``repro jit --dump`` prints
the generated pass.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import groupby
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.tracer import ROW, TraceSite
from ..rtl.kernel import cut_runs, share_kernels, unit_kernels, word_order

__all__ = [
    "stepjit_enabled",
    "partition_jit_reason",
    "compile_step_functions",
    "generate_partition_source",
    "generate_sources",
]

_FALSEY = frozenset(("0", "off", "false", "no"))

#: pass source -> its code, 8 least recently used: a rebuilt plane
#: prints the pass it printed before, and compiles it no more
PASSES: Dict[str, object] = {}


def stepjit_enabled(sim=None) -> bool:
    """Resolve the JIT on/off decision: per-sim override first
    (``sim.stepjit``), then ``REPRO_STEPJIT`` (default: on)."""
    override = getattr(sim, "stepjit", None) if sim is not None else None
    if override is not None:
        return bool(override)
    value = os.environ.get("REPRO_STEPJIT", "").strip().lower()
    return value not in _FALSEY


# --------------------------------------------------------------------------
# eligibility: the one structural reason
# --------------------------------------------------------------------------


def partition_jit_reason(sim, pplan) -> Optional[str]:
    """Why a partition cannot be printed (None = JIT-able).

    Only a unit itself can disqualify it; nothing attached to a run
    does (live sinks are compiled in, hardened or faulted links and
    switch hops are call-outs)."""
    for up in pplan.unit_plans:
        if not up.unit.sim.compiled:
            return (f"{up.prefix}{up.unit.name}: RTL engine runs "
                    f"interpreted (compiled=False)")
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


class _Src(str):
    """A trace arg printed as source: read when the event fires."""


def _token_dict_expr(word: str, fields) -> str:
    """Inline ``codec.decode(word)`` as a dict literal (same key order:
    spec order)."""
    return "{" + ", ".join(f"{port!r}: {_field(word, offset, mask)}"
                           for port, offset, mask in fields) + "}"


class _PassCodegen:
    """Emits one ``_pass(target_cycles, budget)`` over ``pplans``, the
    partitions this process steps, in schedule order."""

    def __init__(self, sim, pplans):
        self.sim = sim
        self.pplans = pplans
        self.b = _Binder()
        self.w = _Writer()
        b = self.b
        #: (partition, spans) names of each stepped partition, whose
        #: cursors the pass carries as ``busy{i}`` ...
        self.owners = [(b.bind(p.part, "pt"),
                        b.bind(p.part.hooks.spans, "sp")) for p in pplans]
        self.SIM = b.bind(sim, "sm")
        self.LEN = b.bind(len, "len")
        self.RANGE = b.bind(range, "rng")
        router = sim.router
        self.RC = (b.bind(router.consumed, "rc")
                   if router is not None else None)
        self.router = router
        #: bound unit plan per unit index (its frame rides in
        #: ``kn{uid}``)
        self.kernel_units: List[str] = []
        #: the calls that leave each dep-carrying unit's output ports
        #: holding its last fired words, made on the way out
        self.ports: List[str] = []
        #: the stepped index of the partition being printed (what
        #: suffixes its locals)
        self.s = 0
        #: per-partition compile verdict, filled by :meth:`generate`
        self.report: Dict[str, str] = {}
        #: the attached hook set, fixed for this compile: a live sink
        #: gets its emit sites compiled in, a null sink binds nothing
        #: and emits nothing
        self.trace = sim._trace
        self.metrics = sim._metrics_on
        if self.trace:
            self.EM = b.bind(sim.tracer.row_sink(), "em")
            self.TR = b.bind(sim.tracer, "tr")
        if self.metrics:
            self.TEL = b.bind(sim.telemetry, "tel")
            self.ONP = b.bind(sim.telemetry.on_pass, "onp")

    # -- fragments --------------------------------------------------------

    def _emit_feed(self, L: int, source_ops) -> None:
        """Source feeding: the interpreter's, inlined."""
        w, b = self.w, self.b
        for key, channel, source, unit in source_ops:
            SQ = b.bind(channel.queue, "sq")
            NW = b.bind(source.next_word, "nw")
            SU = b.bind(unit, "u")
            CD = b.bind(channel.codec, "cd")
            AQ = b.bind(self.sim._arrivals[key], "aq")
            w.emit(L, f"if not {SQ}:")
            w.emit(L + 1, f"{SQ}.append({NW}({SU}.target_cycle, {CD}))")
            w.emit(L + 1, f"{AQ}.append(0.0)")

    def _cursor_stmts(self, load: bool) -> List[str]:
        """The cursors a pass carries in locals — the busy cursor and
        FMR spans of each partition, then the simulation's token count
        — loaded from (or stored back to) the objects that own them."""
        pairs = []
        for i, (PT, SP) in enumerate(self.owners):
            pairs += [(f"busy{i}", f"{PT}.busy_until"),
                      (f"lw{i}", f"{SP}.link_wait_ns"),
                      (f"cs{i}", f"{SP}.credit_stall_ns"),
                      (f"sd{i}", f"{SP}.serdes_ns"),
                      (f"cp{i}", f"{SP}.compute_ns"),
                      (f"sy{i}", f"{SP}.sync_ns")]
        pairs.append(("tt", f"{self.SIM}.total_tokens"))
        return [f"{local} = {attr}" if load else f"{attr} = {local}"
                for local, attr in pairs]

    def _emit_event(self, L: int, kind: str, ts: str, dur: str,
                    part: str, scope: str, args) -> None:
        """One trace emit site (live tracer only): the interpreter's
        ``tracer.emit(TraceEvent(...))`` split into a :class:`TraceSite`
        bound once (kind, part, scope, arg keys, static arg values) and
        a row of what changes per event, appended to the sink.
        ``ts``/``dur`` are source expressions; ``args`` is ``(key,
        value)`` pairs in the interpreter's key order, a :class:`_Src`
        value being read when the event fires."""
        if self.trace:
            site = TraceSite(kind, part, scope, [
                (key, ROW if isinstance(value, _Src) else value)
                for key, value in args])
            row = [self.b.bind(site, "ts"), ts, dur] + [
                value for _, value in args if isinstance(value, _Src)]
            self.w.emit(L, f"{self.EM}(({', '.join(row)}))")
            self.w.emit(L, "te += 1")

    def _emit_wrapper_event(self, L: int, kind: str, up, scope: str
                            ) -> None:
        """``channel_fire`` / ``advance``: the events the LI-BDN
        wrapper emits from inside ``try_fire_outputs`` / ``advance``.
        Its clock reads the partition's busy cursor, which the
        generated code carries in its ``busy`` local."""
        U = self.b.bind(up.unit, "u")
        self._emit_event(L, kind, f"busy{self.s}", "0.0", up.unit.name,
                         scope,
                         [("cycle", _Src(f"{U}.target_cycle"))])

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
        w, b, sim, s = self.w, self.b, self.sim, self.s
        part = up.part
        busy = f"busy{s}"
        wvar = f"w{uid}_{j}"
        w.emit(L, f"if {wvar} is not None:")
        Lo = L + 1
        # dependent-input arrival wait (link_wait span)
        w.emit(Lo, "_da = 0.0")
        for key in op.dep_keys:
            DQ = b.bind(sim._arrivals[key], "aq")
            w.emit(Lo, f"if {DQ} and {DQ}[0] > _da:")
            w.emit(Lo + 1, f"_da = {DQ}[0]")
        w.emit(Lo, f"_ds = {busy} if {busy} > _da else _da")
        w.emit(Lo, f"lw{s} += _ds - {busy}")
        link = op.link
        if link is None:
            # bridge tap: drained by wide DMA batches, effectively free
            w.emit(Lo, f"{busy} = _ds")
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
                [("cycle", _Src(f"{b.bind(up.unit, 'u')}.target_cycle"))])
            return
        w.emit(Lo, "_st = _ds")
        LK = b.bind(link, "lk")
        credited = sim.channel_capacity is not None
        if credited:
            self._emit_credit(Lo, op)
            # only a credit window can make the wait non-zero
            w.emit(Lo, "_cw = _st - _ds")
            w.emit(Lo, f"cs{s} += _cw")
            w.emit(Lo, "if _cw:")
            w.emit(Lo + 1, f"{LK}.stalls += 1")
            self._emit_event(
                Lo + 1, "credit_stall", "_ds", "_cw", part.name, op.full,
                [("link", link.key), ("tokens", _Src(f"{LK}.tokens"))])
        else:
            w.emit(Lo, f"cs{s} += _st - _ds")
        w.emit(Lo, f"sd{s} += {_f(op.tx_ns)}")
        w.emit(Lo, f"{busy} = _st + {_f(op.tx_ns)}")
        w.emit(Lo, f"_nf = {LK}.next_free")
        w.emit(Lo, f"_dep = {busy} if {busy} > _nf else _nf")
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
            outcome = [("retries", 0), ("retry_delay_ns", 0.0)]
        else:
            # reliability layer / fault injector: ``link.transmit`` is
            # a call-out, made where the interpreter makes it and with
            # the partition's cursor published as the interpreter has
            # it by then (the call runs foreign code and can raise
            # ``LinkGiveUpError``); retransmissions hold the link busy
            # beyond the clean occupancy window
            TX = b.bind(link.transmit, "tx")
            CD = b.bind(op.codec, "cd")
            w.emit(Lo, f"{self.owners[s][0]}.busy_until = {busy}")
            w.emit(Lo, f"_r = {TX}(_dep, {wvar}, {CD})")
            w.emit(Lo, "_arr = _r.arrive_ns")
            w.emit(Lo, "_rd = _r.retry_delay_ns")
            w.emit(Lo, "_rw = _r.word")
            w.emit(Lo, f"{LK}.next_free += _rd")
            word, held = "_rw", f"{occ} + _rd"
            outcome = [("retries", _Src("_r.retries")),
                       ("retry_delay_ns", _Src("_rd"))]
        if op.repack is not None:
            w.emit(Lo, f"_mw = {_repack_expr(word, op.repack)}")
            word = "_mw"
        w.emit(Lo, f"{LK}.busy_ns += {held}")
        self._emit_event(
            Lo, "token_tx", "_st", repr(op.tx_ns), part.name, op.full,
            [("link", link.key), ("width", op.width),
             ("serdes_ns", op.tx_ns), ("wire_ns", op.wire_ns),
             ("occupancy_ns", op.occupancy_ns),
             ("queue_wait_ns", _Src(f"_dep - {busy}"))] + outcome)
        if op.clean:
            self._emit_delivery(Lo, op, word)
        else:
            w.emit(Lo, "if _r.delivered:")
            self._emit_delivery(Lo + 1, op, word)
            w.emit(Lo, "else:")
            w.emit(Lo + 1, f"{self.SIM}.dropped_tokens += 1")
        w.emit(Lo, f"{LK}.tokens += 1")
        w.emit(Lo, "tt += 1")

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
        AQ2 = b.bind(sim._arrivals[link.dst], "aq")
        DH = b.bind(link.depth_hist, "dh")
        DHG = b.bind(link.depth_hist.get, "dhg")
        w.emit(Lo, f"{DQ2}.append({mw})")
        w.emit(Lo, f"{AQ2}.append(_arr + {rx})")
        w.emit(Lo, f"_d = {self.LEN}({AQ2})")
        w.emit(Lo, f"{DH}[_d] = {DHG}(_d, 0) + 1")
        self._emit_event(
            Lo, "token_rx", f"_arr + {rx}", "0.0", link.dst[0],
            link.dst[1],
            [("link", link.key), ("rx_serdes_ns", op.rx_ns),
             ("depth", _Src("_d"))])

    def _emit_advance_timing(self, La: int, up) -> None:
        """The advance's timing bookkeeping: arrival pops, link-wait
        and compute spans, credit consume records, busy cursor."""
        w, b, sim, s = self.w, self.b, self.sim, self.s
        part = up.part
        busy = f"busy{s}"
        w.emit(La, "_ir = 0.0")
        for key in up.in_keys:
            IA = b.bind(sim._arrivals[key], "aq")
            w.emit(La, f"if {IA}:")
            w.emit(La + 1, f"_a = {IA}.popleft()")
            w.emit(La + 1, "if _a > _ir:")
            w.emit(La + 2, "_ir = _a")
        w.emit(La, f"_st = {busy} if {busy} > _ir else _ir")
        w.emit(La, f"lw{s} += _st - {busy}")
        hc = _f(up.host_cycle_ns)
        if sim.channel_capacity is not None and up.consume_keys:
            w.emit(La, f"_cn = _st + {hc}")
            for key in up.consume_keys:
                CT = b.bind(sim._consume_times[key], "cq")
                w.emit(La, f"{CT}.append(_cn)")
                if self.RC is not None:
                    CK = b.bind(key, "ck")
                    w.emit(La, f"{self.RC}({CK}, _cn)")
        w.emit(La, f"cp{s} += {hc}")
        ovh = part.advance_overhead_ns
        if ovh:
            w.emit(La, f"sy{s} += {_f(ovh)}")
        self._emit_event(
            La, "target_cycle", "_st",
            repr(up.host_cycle_ns + part.advance_overhead_ns),
            part.name, up.prefix + up.unit.name,
            [("cycle", _Src(f"{b.bind(up.unit, 'u')}.target_cycle")),
             ("input_wait_ns", _Src(f"_st - {busy}"))])
        if ovh:
            w.emit(La, f"{busy} = _st + {hc} + {_f(ovh)}")
        else:
            w.emit(La, f"{busy} = _st + {hc}")

    def _emit_advance(self, L: int, up, names: dict, fused: bool
                      ) -> None:
        """The fireFSM advance (``unit.advance()``, inlined): timing,
        input pops + pokes, the ``cyc`` resume, re-arm, cycle bumps.
        ``fused`` prints the single settle's advance instead (``if
        _tk:``): ``cyc`` already ticked over the poked inputs, and the
        settle set no fired flag for the re-arm to clear."""
        w, F, in_qs = self.w, names["F"], names["in_qs"]
        conds = [f"{F}[{e[0]!r}]" for e in names["fire_plans"]] + in_qs
        w.emit(L, "if _tk:" if fused else (
            "elif " if names["fire_plans"] else "if ")
            + (" and ".join(conds) or "True") + ":")
        La = L + 1
        self._emit_advance_timing(La, up)
        for iq, (_ch, fields) in zip(in_qs, names["in_plans"]):
            w.emit(La, f"{'' if fused else '_w = '}{iq}.popleft()")
            for line in () if fused else _unpack_lines(
                    names["ENV"], "_w", fields):
                w.emit(La, line)
        if not fused:
            w.emit(La, f"kn{names['uid']}()")
            if names["fire_plans"]:
                # the cached words are not this resume's
                w.emit(La, f"{names['QS']}[0] = False")
        w.emit(La, f"{names['RTL']}.cycle += 1")
        for n in () if fused else up.unit._fired:
            w.emit(La, f"{F}[{n!r}] = False")
        w.emit(La, f"{names['U']}.target_cycle += 1")
        self._emit_wrapper_event(La, "advance", up, "")
        w.emit(La, "progress = True")

    def _emit_settle(self, Lb: int, up, names: dict, rule: str) -> None:
        """The single settle: at the unit's first fire of a cycle, with
        every input queue non-empty, one ``cyc`` resume over the poked
        inputs gives every word and the commit (``_tk``: the fused
        advance follows the out-ops), or, at a tick fixed point (the
        quiescence cell) whose inputs repeat, the cached words replay,
        as ``rule`` (:func:`_settle_rule`) allows."""
        w, F, ENV, QS = self.w, names["F"], names["ENV"], names["QS"]
        k, in_qs, uid = len(names["fire_plans"]), names["in_qs"], \
            names["uid"]
        armed = [f"not {F}[{run[0][0]!r}]" for run, _ in names["runs"]]
        w.emit(Lb, "if " + " and ".join(armed + in_qs) + ":")
        Lf = Lb + 1
        same: List[str] = []
        pokes: List[str] = []
        for i, (_ch, fields) in enumerate(names["in_plans"]):
            w.emit(Lf, f"_h{i} = {in_qs[i]}[0]")
            same += [f"{ENV}[{port!r}] == {_field(f'_h{i}', off, msk)}"
                     for port, off, msk in fields]
            pokes += _unpack_lines(ENV, f"_h{i}", fields)
        quiet = f"{QS}[0]"
        tk, again = {"poke": ([], [quiet] + same), "same": (same, [quiet]),
                     "replay": ([quiet] + same, [])}[rule]
        w.emit(Lf, f"_tk = {' and '.join(tk) or 'True'}")
        if tk:
            w.emit(Lf, "if _tk:")
            Lf += 1
        if again:
            w.emit(Lf, f"if {' and '.join(again)}:")
        for j in range(k):
            w.emit(Lf + bool(again), f"w{uid}_{j} = {QS}[{j + 1}]")
        if again:
            # the kernels yield their words in layout order
            wvars = ", ".join(f"w{uid}_{j}" for j in word_order(
                [entry[2] for entry in names["fire_plans"]]))
            w.emit(Lf, "else:")
            for line in (pokes if rule == "poke" else []) + [
                    f"{wvars}, _cv = kn{uid}()", f"{quiet} = _cv"] + [
                    f"{QS}[{j + 1}] = w{uid}_{j}" for j in range(k)]:
                w.emit(Lf + 1, line)
        w.emit(Lf, "progress = True")
        for entry in names["fire_plans"]:
            self._emit_wrapper_event(Lf, "channel_fire", up, entry[0])

    def _emit_fires(self, Lb: int, up, names: dict) -> None:
        """Every other cycle: each run of channels sharing a dep set
        fires from its own kernel as soon as its dep queues hold words,
        after the dep pokes ``try_fire_outputs`` makes (the runs are
        consecutive in fire order, so no other poke falls between two
        channels one kernel fires)."""
        w, b, uid = self.w, self.b, names["uid"]
        F, ENV, MEMS = names["F"], names["ENV"], names["MEMS"]
        w.emit(Lb, "if not _tk:")
        first = 0
        for run, fire in names["runs"]:
            dep_plans = run[0][1]
            dqs = [b.bind(dep_ch.queue, "dq") for dep_ch, _ in dep_plans]
            w.emit(Lb + 1, "if " + " and ".join(
                [f"not {F}[{run[0][0]!r}]"] + dqs) + ":")
            Lf = Lb + 2
            for DQ, (_dep_ch, fields) in zip(dqs, dep_plans):
                if fields:
                    w.emit(Lf, f"_h = {DQ}[0]")
                    for line in _unpack_lines(ENV, "_h", fields):
                        w.emit(Lf, line)
            wvars = [f"w{uid}_{first + j}" for j in word_order(
                [entry[2] for entry in run])]
            w.emit(Lf, f"{', '.join(wvars)} = "
                       f"{b.bind(fire, 'kf')}({ENV}, {MEMS})")
            for j in range(first, first + len(run)):
                w.emit(Lf, f"{names['QS']}[{j + 1}] = w{uid}_{j}")
            for entry in run:
                w.emit(Lf, f"{F}[{entry[0]!r}] = True")
            w.emit(Lf, "progress = True")
            for entry in run:
                self._emit_wrapper_event(Lf, "channel_fire", up, entry[0])
            first += len(run)

    def _emit_unit(self, L: int, up) -> None:
        """One unit's pass: header, fire, out-ops, advance, on fused
        RTL kernels (:func:`repro.rtl.kernel.unit_kernels`)."""
        w, b, unit = self.w, self.b, up.unit
        uid = len(self.kernel_units)
        bindings = unit.step_bindings()
        elab, layouts, tag, runs = _kernel_request(up)
        kern = unit_kernels(elab, layouts, tag, runs)
        fire_plans = bindings["fire_plans"]
        k = len(fire_plans)
        names = {
            "U": b.bind(unit, "u"),
            "F": b.bind(bindings["fired"], "f"),
            "ENV": b.bind(bindings["env"], "e"),
            "MEMS": b.bind(bindings["mems"], "mm"),
            "RTL": b.bind(bindings["rtl"], "r"),
            "fire_plans": fire_plans,
            "in_plans": bindings["in_plans"],
            "in_qs": [b.bind(ch.queue, "iq")
                      for ch, _ in bindings["in_plans"]],
            "uid": uid,
        }
        self.kernel_units.append(b.bind(up, "up"))
        # the split-path advance resumes the frame too, words ignored
        up.kernel = partial(kern[-1] or kern[-2], bindings["env"],
                            bindings["mems"])
        w.emit(L, f"# unit {up.prefix}{unit.name}")
        w.emit(L, f"if {names['U']}.target_cycle < target_cycles:")
        Lb = L + 1
        if k:
            #: quiescence cell: converged plus cached words means the
            #: previous settle hit a tick fixed point, so a repeat-input
            #: cycle replays them and skips the kernel
            names["QS"] = b.bind(up.replay, "qs")
            names["runs"] = list(zip(cut_runs(fire_plans, runs),
                                     kern[:-2]))
            for j in range(k):
                w.emit(Lb, f"w{uid}_{j} = None")
            w.emit(Lb, "_tk = False")
            self._emit_settle(Lb, up, names, _settle_rule(up, names["runs"]))
            self._emit_fires(Lb, up, names)
            if any(entry[1] for entry in fire_plans):
                self.ports.append(b.bind(partial(
                    _write_ports, up.replay, bindings["env"],
                    [entry[2] for entry in fire_plans]), "wp") + "()")
        # process fired tokens in fire order
        for j, entry in enumerate(fire_plans):
            self._emit_out_op(Lb, uid, j, up, up.out_ops[entry[0]])
        if k:
            self._emit_advance(Lb, up, names, fused=True)
        self._emit_advance(Lb, up, names, fused=False)

    # -- whole function ---------------------------------------------------

    def generate(self) -> Tuple[str, Dict[str, object]]:
        """Print the pass: each partition's slot and sampler check in
        schedule order, then the header (bindings ride in as default
        args: every pre-bound object is a LOAD_FAST in the hot loop)."""
        Lt, b = 4, self.b  # pass statements sit inside the ``while``
        # every kernel printed before any is compiled: repeated
        # partitions compile one template
        share_kernels([_kernel_request(up) for pplan in self.pplans
                       for up in pplan.unit_plans])
        for i, pplan in enumerate(self.pplans):
            start, self.s = len(self.w.lines), i
            self._emit_feed(Lt, pplan.source_ops)
            for up in pplan.unit_plans:
                self._emit_unit(Lt, up)
            if self.metrics:
                # the sampler check, where the interpreter makes it: a
                # sample reads its partition's cursors, live status
                # every busy cursor, and neither writes one, so every
                # cursor is published before the call and none reloaded
                TEL, U = self.TEL, b.bind(pplan.unit_plans[0].unit, "u")
                self.w.emit(Lt, f"_sm = {TEL}.sampler")
                self.w.emit(Lt, f"if {TEL}.live is not None or "
                                f"{U}.target_cycle >= _sm.next_at.get("
                                f"{pplan.part.name!r}, _sm.interval):")
                self.w.emit(Lt + 1, "; ".join(self._cursor_stmts(False)))
                self.w.emit(Lt + 1, f"{self.ONP}({self.SIM}, "
                                    f"{b.bind(pplan.part, 'pt')})")
            units = len(pplan.unit_plans)
            self.report[pplan.part.name] = (
                f"compiled: {units} unit(s) ({units} fused-kernel), "
                f"{len(self.w.lines) - start} lines")
        body, w = self.w.lines, _Writer()
        short = " or ".join(
            f"{b.bind(up.unit, 'u')}.target_cycle < target_cycles"
            for pplan in self.pplans for up in pplan.unit_plans)
        load = self._cursor_stmts(load=True) \
            + [f"kn{uid} = {UP}.frame"
               for uid, UP in enumerate(self.kernel_units)]
        store = self._cursor_stmts(load=False) + self.ports
        if self.trace:
            # rows printed this call, added once on the way out (a
            # call-out adds its own events as it emits them)
            load.append("te = 0")
            store.append(f"{self.TR}.total_emitted += te")
        w.emit(0, "def _make(_B):")
        w.emit(1, "def _pass(")
        w.emit(2, "target_cycles, budget,")
        for name in b.values:
            w.emit(2, f"{name}=_B[{name!r}],")
        w.emit(1, "):")
        w.emit(2, "passes = 0")
        w.emit(2, "progress = True")
        for stmt in load:
            w.emit(2, stmt)
        w.emit(2, "try:")
        w.emit(3, f"while passes < budget and progress and ({short}):")
        w.emit(Lt, "progress = False")
        w.lines.extend(body)
        w.emit(Lt, "passes += 1")
        w.emit(2, "finally:")
        for stmt in store:
            w.emit(3, stmt)
        w.emit(2, "return passes, progress")
        w.emit(1, "return _pass")
        return "\n".join(w.lines) + "\n", dict(b.values)


def _kernel_request(up):
    """``(elab, pack layouts, tag, runs)`` of a unit's kernels: one fire
    kernel per run of consecutive output channels (fire order) that
    share a dep set."""
    plans = up.unit.step_bindings()["fire_plans"]
    runs = tuple(len(list(run)) for _deps, run in groupby(
        plans, key=lambda entry: [ch for ch, _ in entry[1]]))
    return (up.unit.sim.elab, [entry[2] for entry in plans],
            up.unit.name, runs)


def _settle_rule(up, runs) -> str:
    """When a unit may settle once: ``poke`` (always) is sound because a
    channel's word reads only registers and the inputs its deps declare,
    which the interpreter pokes to the same head words before it fires.
    The printer's ``reads`` check that: a unit whose cone reads an input
    its run does not declare settles once only when no poke would change
    the env (``same``).  An out-op that calls out (``link.transmit``)
    can raise before the advance, so no settle may commit ahead of it:
    it only replays (``replay``)."""
    if not all(op.clean for op in up.out_ops.values()):
        return "replay"
    if any(not set(fire._stepjit_stats["reads"]) <= {
            port for _ch, fields in run[0][1] for port, _o, _m in fields}
            for run, fire in runs):
        return "same"
    return "poke"


def _write_ports(replay: list, env: dict, layouts) -> None:
    """Each output port of a dep-carrying unit (which the engine's
    generic pair used to settle) takes the word its channel last fired,
    as the interpreter's last settle left it."""
    for word, fields in zip(replay[1:], layouts):
        if word is not None:
            for port, offset, mask in fields:
                env[port] = (word >> offset) & mask


def _stepped(sim) -> list:
    """The partitions this process steps: every one of the schedule,
    or under a router (a process worker) the local one — peers' passes
    arrive as effect frames."""
    router = sim.router
    return [p for p in sim.ensure_schedule()
            if router is None or router.is_local(p.part.name)]


def generate_partition_source(sim, pplan
                              ) -> Tuple[str, Dict[str, object]]:
    """One partition's pass — what a process worker compiles — plus
    the binding table its default arguments are resolved from."""
    return _PassCodegen(sim, [pplan]).generate()


def _interpreted(sim, stepped) -> Optional[Dict[str, str]]:
    """Every stepped partition's verdict when one of them cannot be
    printed (the whole plane then runs interpreted), else None."""
    for pplan in stepped:
        reason = partition_jit_reason(sim, pplan)
        if reason is not None:
            return {p.part.name: f"interpreted: {reason}" for p in stepped}
    return None


def compile_step_functions(sim) -> Tuple[
        Callable[[int, int], Tuple[int, bool]], Dict[str, str]]:
    """The plane's pass loop, printed and ``compile()``d once, and every
    partition's compile verdict (the harness's ``last_jit_report``):
    ``(advance, report)``, ``advance(target_cycles, budget) -> (passes,
    progress)`` being the compiled ``_pass`` or, with the JIT disabled
    or a stepped partition that cannot be printed, the harness's
    interpreter loop with the same contract."""
    stepped = _stepped(sim)
    if not stepjit_enabled(sim):
        return partial(sim._interpret, stepped), {
            name: "disabled (REPRO_STEPJIT / stepjit override)"
            for name in sim.partitions}
    report = dict.fromkeys(sim.partitions,
                           "skipped: not scheduled in this process")
    verdicts = _interpreted(sim, stepped)
    if verdicts is not None:
        report.update(verdicts)
        return partial(sim._interpret, stepped), report
    cg = _PassCodegen(sim, stepped)
    src, bindings = cg.generate()
    PASSES[src] = PASSES.pop(src, None) or compile(
        src, "<stepjit:pass>", "exec")
    for stale in list(PASSES)[:-8]:
        PASSES.pop(stale, None)
    namespace: Dict[str, object] = {}
    exec(PASSES[src], namespace)
    report.update(cg.report)
    return namespace["_make"](bindings), report


def generate_sources(sim) -> Tuple[str, Dict[str, str]]:
    """The pass source ``run()`` compiles with the JIT on (empty for an
    interpreted plane), and each partition's verdict (``repro jit``)."""
    stepped = _stepped(sim)
    verdicts = _interpreted(sim, stepped)
    if verdicts is not None:
        return "", verdicts
    cg = _PassCodegen(sim, stepped)
    return cg.generate()[0], cg.report
