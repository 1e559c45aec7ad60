"""Differential oracles — the scenario mill's back half.

Each oracle takes one normalized job config (a scenario's
:func:`~repro.fuzz.generator.scenario_config`), runs it through one or
more execution configurations, and raises
:class:`~repro.errors.FuzzFailure` when the configurations disagree:

* :func:`check_identity` — the same compiled design run on both
  execution backends (``inproc``, ``process``) must produce
  bit-identical functional results:
  same external output tokens, same per-partition cycle counts, same
  token counts, same ``SimulationResult.detail``.
* :func:`check_fastmode` — the Table II relationship: exact-mode
  partitioned matches the monolithic done-cycle exactly, fast-mode
  never undershoots it, and both deliver the same final payload.
* :func:`check_checkpoint` — a mid-run capture, JSON round-trip,
  restore onto a freshly built simulation, and continuation must land
  on the same functional result as an uninterrupted run.
* :func:`check_faults` — the config itself, every link hardened over
  its seeded ``faults`` schedule, must survive (no give-up, no
  deadlock) and deliver the clean twin's functional result, never
  faster — and bit-for-bit the digest of the same run interpreted.
* :func:`check_engine` — the compiled step plane and the interpreter
  (``stepjit=False``) must produce the same full functional digest.

The other four run the clean twin (the config without ``faults``).
:func:`check_identity` and :func:`check_faults` also fail when a
partition did not take the compiled step plane, so the next JIT cliff
shows up as a shrunk corpus file instead of a slow run.

Backends that cannot run on the host (no ``fork``, no sockets) or
cannot take the topology are *skipped*, not failed — the oracles
measure agreement among the configurations that can run.

An oracle compiles once per (config, mode) through the executor and
re-wires a fresh simulation for every run (a run mutates simulator
state), as the farm does after a rollback.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import (
    BackendUnavailableError,
    CompileError,
    FuzzFailure,
    ReproError,
    UnsupportedTopologyError,
)
from ..harness import MonolithicSimulation
from ..harness.stepjit import stepjit_enabled
from ..reliability import FaultSpec, capture_state, restore_state

#: every execution backend the differential harness covers
BACKENDS = ("inproc", "process")

#: all oracles, in the order a campaign runs them
ORACLES = ("identity", "fastmode", "checkpoint", "faults", "engine")

#: ceiling for done-cycle searches (generated targets finish in a few
#: hundred cycles; hitting this means the design hung)
MAX_DONE_CYCLES = 4000

#: a perturbation hook: (backend, sim, result) -> None, mutating the
#: result in place — used to prove the harness catches injected bugs
Perturbation = Callable[[str, object, object], None]


def functional_digest(sim, result) -> dict:
    """Everything about a run that must be backend-independent.

    Timing fields (``wall_ns``, ``rate_hz``) are deliberately excluded
    from the *cross-oracle* comparisons that allow timing to differ;
    the identity oracle compares ``detail`` too, which carries the
    timing breakdown — the backends share the timing overlay, so
    even that must match bit-for-bit.
    """
    outputs = {
        f"{part}/{chan}": [dict(t) for t in tokens]
        for (part, chan), tokens in sorted(sim.output_log.items())
    }
    return {
        "target_cycles": result.target_cycles,
        "tokens": result.tokens_transferred,
        "per_partition_cycles": dict(
            sorted(result.per_partition_cycles.items())),
        "detail": result.detail,
        "outputs": outputs,
    }


def _twin(config: dict, mode: Optional[str] = None) -> dict:
    """The clean twin of ``config`` (no ``faults``), optionally in
    another partitioning ``mode`` — which drops a ``fame5`` merge, since
    a merge is drawn for the config's own mode."""
    twin = {k: v for k, v in config.items() if k != "faults"}
    if mode is not None and mode != config["mode"]:
        twin.pop("fame5", None)
        twin["mode"] = mode
    return twin


def _executor():
    """``repro.service.executor``, the one builder a job has — imported
    on first use: the service package pulls in asyncio and the process
    backend, which ``import repro.fuzz`` (the ledger imports
    :func:`functional_digest`) must not pay for."""
    from ..service import executor
    return executor


def _build(config: dict, design=None):
    """A fresh simulation of ``config``, its outputs recorded (the
    digest compares them)."""
    return _executor().build_simulation(config, design,
                                        record_outputs=True)


def _require_compiled(oracle: str, backend: str, sim,
                      config: dict) -> None:
    """Fail when a partition of ``sim``'s last run was not compiled
    (unless the JIT was switched off for the whole run)."""
    missed = {name: verdict
              for name, verdict in sorted(sim.last_jit_report.items())
              if not verdict.startswith("compiled")}
    if missed and stepjit_enabled(sim):
        raise FuzzFailure(
            oracle, backend,
            f"partitions left the compiled step plane: {missed}",
            config=config)


def _first_diff(ref: dict, got: dict, prefix: str = "") -> str:
    """Human-readable pointer at the first difference between two
    digests (both are plain JSON-able dicts)."""
    for key in ref:
        path = f"{prefix}{key}"
        if key not in got:
            return f"{path} missing"
        a, b = ref[key], got[key]
        if isinstance(a, dict) and isinstance(b, dict):
            if a != b:
                return _first_diff(a, b, prefix=f"{path}.")
            continue
        if a != b:
            sa, sb = repr(a), repr(b)
            if len(sa) > 80:
                sa = sa[:77] + "..."
            if len(sb) > 80:
                sb = sb[:77] + "..."
            return f"{path}: reference {sa} != {sb}"
    extra = set(got) - set(ref)
    if extra:
        return f"{prefix}{sorted(extra)[0]} unexpected"
    return "digests differ (no leaf diff found)"


# --------------------------------------------------------------------------
# identity: inproc vs process agreement
# --------------------------------------------------------------------------


def check_identity(config: dict,
                   backends: Sequence[str] = BACKENDS,
                   perturb: Optional[Perturbation] = None) -> dict:
    """Run the clean twin on every backend; all must agree bit-for-bit
    with the in-process reference."""
    clean = _twin(config)
    design = _executor().compile_design(clean)
    digests: Dict[str, dict] = {}
    skipped: Dict[str, str] = {}
    for backend in backends:
        sim = _build(clean, design)
        try:
            result = sim.run(clean["cycles"], backend=backend)
        except (BackendUnavailableError,
                UnsupportedTopologyError) as exc:
            skipped[backend] = str(exc)
            continue
        _require_compiled("identity", backend, sim, config)
        if perturb is not None:
            perturb(backend, sim, result)
        digests[backend] = functional_digest(sim, result)
    if "inproc" not in digests:
        raise FuzzFailure(
            "identity", "inproc",
            f"in-process reference could not run: "
            f"{skipped.get('inproc', 'unknown')}", config=config)
    reference = digests["inproc"]
    for backend, digest in digests.items():
        if digest != reference:
            raise FuzzFailure(
                "identity", backend, _first_diff(reference, digest),
                config=config)
    return {"compared": sorted(digests), "skipped": skipped,
            "tokens": reference["tokens"]}


# --------------------------------------------------------------------------
# fastmode: exact == monolithic, fast >= exact
# --------------------------------------------------------------------------


def _done_log(sim):
    return sim.output_log.get(("base", "io_out"), [])


def _partitioned_done(config: dict, mode: str) -> Tuple[int, dict]:
    """(done cycle, done token) of the partitioned run in ``mode``."""
    sim = _build(_twin(config, mode))

    def stop(s) -> bool:
        log = _done_log(s)
        return bool(log) and log[-1]["done"] == 1

    sim.run(MAX_DONE_CYCLES, stop=stop)
    for cycle, token in enumerate(_done_log(sim)):
        if token["done"]:
            return cycle, dict(token)
    raise FuzzFailure(
        "fastmode", "",
        f"done never observed within {MAX_DONE_CYCLES} cycles in "
        f"{mode}-mode partitioned run", config=config)


def check_fastmode(config: dict) -> dict:
    """Exact-mode must match monolithic cycle-for-cycle; fast-mode may
    run the target ahead but never finishes *earlier* than exact, and
    both must deliver the same final payload."""
    circuit = _executor().load_circuit(config)
    if not any(p.name == "done" for p in circuit.top_module.output_ports):
        return {"status": "skipped", "reason": "target has no done output"}
    mono = MonolithicSimulation(circuit)
    mono_cycles = mono.run_until(
        "done", 1, max_cycles=MAX_DONE_CYCLES).target_cycles

    exact_cycles, exact_token = _partitioned_done(config, mode="exact")
    if exact_cycles != mono_cycles:
        raise FuzzFailure(
            "fastmode", "",
            f"exact-mode done cycle {exact_cycles} != monolithic "
            f"{mono_cycles}", config=config)
    try:
        fast_cycles, fast_token = _partitioned_done(config, mode="fast")
    except CompileError as exc:
        # some boundaries are exact-only (combinational chains); that is
        # a property of the target, not a disagreement
        return {"status": "skipped", "reason": f"fast-mode: {exc}",
                "mono_cycles": mono_cycles}
    if fast_cycles < exact_cycles:
        raise FuzzFailure(
            "fastmode", "",
            f"fast-mode finished at cycle {fast_cycles}, undershooting "
            f"exact-mode at {exact_cycles} — fast-mode must never be "
            f"early", config=config)
    if fast_token != exact_token:
        raise FuzzFailure(
            "fastmode", "",
            "fast-mode final payload differs from exact-mode: "
            + _first_diff(exact_token, fast_token), config=config)
    return {"status": "ok", "mono_cycles": mono_cycles,
            "exact_cycles": exact_cycles, "fast_cycles": fast_cycles}


# --------------------------------------------------------------------------
# checkpoint: capture/restore round-trip equivalence
# --------------------------------------------------------------------------


def check_checkpoint(config: dict,
                     perturb_state: Optional[Callable[[dict], dict]] = None
                     ) -> dict:
    """Capture at the midpoint, JSON-round-trip, restore onto a fresh
    build, continue — must land where the uninterrupted run lands.

    The comparison is the *functional* contract: output tokens, target
    and per-partition cycle counts, and total token traffic.  The
    timing overlay's span attribution is excluded on purpose: a run
    split across two ``run()`` calls can book the same idle nanoseconds
    to a different stall bucket at the seam (the pass scheduler's
    interleaving restarts there), and that holds for a plain segmented
    run with no checkpoint involved — the mill found exactly this on
    multi-lane pipelines.  FAME-5 restore is likewise only functionally
    exact (threads re-interleave).
    """
    clean = _twin(config)
    design = _executor().compile_design(clean)
    cycles = clean["cycles"]
    mid = max(1, cycles // 2)

    straight_sim = _build(clean, design)
    straight = functional_digest(straight_sim, straight_sim.run(cycles))

    first = _build(clean, design)
    first.run(mid)
    state = json.loads(json.dumps(capture_state(first)))
    if perturb_state is not None:
        state = perturb_state(state)

    resumed_sim = _build(clean, design)
    restore_state(resumed_sim, state)
    resumed = functional_digest(resumed_sim, resumed_sim.run(cycles))

    keys = ("target_cycles", "tokens", "per_partition_cycles",
            "outputs")
    a = {k: straight[k] for k in keys}
    b = {k: resumed[k] for k in keys}
    if a != b:
        raise FuzzFailure(
            "checkpoint", "",
            f"resumed run diverged from straight run (capture at cycle "
            f"{mid}): " + _first_diff(a, b), config=config)
    return {"status": "ok", "capture_cycle": mid,
            "fame5": "fame5" in config}


# --------------------------------------------------------------------------
# faults: reliable links under a seeded fault schedule
# --------------------------------------------------------------------------


def check_faults(config: dict) -> dict:
    """Build the config — every link hardened over its seeded ``faults``
    schedule — and require the run to survive with the clean twin's
    functional results.

    The timing overlay may only get *slower* (retries burn link time);
    payloads, cycle counts and token ordering must be untouched.  The
    hardened run's full digest (``detail`` included) must equal the
    same config's under ``stepjit=False``."""
    spec = FaultSpec(**config.get("faults", {}))
    if spec.fault_rate == 0.0:
        return {"status": "skipped", "reason": "fault-free schedule"}

    cycles = config["cycles"]
    design = _executor().compile_design(_twin(config))
    clean_sim = _build(_twin(config), design)
    clean_result = clean_sim.run(cycles)
    clean = functional_digest(clean_sim, clean_result)

    def hardened(stepjit: Optional[bool]):
        sim = _build(config, design)
        sim.stepjit = stepjit
        try:
            return sim, sim.run(cycles)
        except ReproError as exc:
            raise FuzzFailure(
                "faults", "",
                f"hardened run did not survive the fault schedule: "
                f"{type(exc).__name__}: {exc}", config=config)

    hard_sim, hard_result = hardened(None)
    _require_compiled("faults", "", hard_sim, config)
    hard = functional_digest(hard_sim, hard_result)
    interp = functional_digest(*hardened(False))
    if interp != hard:
        raise FuzzFailure(
            "faults", "",
            "hardened run differs between the compiled step plane and "
            "the interpreter: " + _first_diff(interp, hard), config=config)
    # the timing breakdown legitimately differs (retries); compare the
    # payload-carrying fields
    keys = ("target_cycles", "per_partition_cycles", "outputs")
    a = {k: clean[k] for k in keys}
    b = {k: hard[k] for k in keys}
    if a != b:
        raise FuzzFailure(
            "faults", "",
            "hardened run's functional results differ from the clean "
            "run: " + _first_diff(a, b), config=config)
    if hard_result.wall_ns < clean_result.wall_ns:
        raise FuzzFailure(
            "faults", "",
            f"hardened run was faster than the clean run "
            f"({hard_result.wall_ns} < {clean_result.wall_ns} ns) — "
            f"retries cannot reduce link time", config=config)
    return {"status": "ok", "fault_rate": spec.fault_rate,
            "retries": hard_result.detail.get("reliability", {})}


# --------------------------------------------------------------------------
# engine: the compiled step plane vs the interpreter
# --------------------------------------------------------------------------


def check_engine(config: dict) -> dict:
    """Run the clean twin in-process on the compiled step plane and on
    the interpreter (``stepjit=False``); the full functional digest,
    ``detail`` included, must be the same."""
    clean = _twin(config)
    design = _executor().compile_design(clean)
    digests = []
    for stepjit in (False, None):
        sim = _build(clean, design)
        sim.stepjit = stepjit
        digests.append(functional_digest(
            sim, sim.run(clean["cycles"], backend="inproc")))
    _require_compiled("engine", "inproc", sim, config)
    interp, jit = digests
    if jit != interp:
        raise FuzzFailure(
            "engine", "inproc",
            "the compiled step plane differs from the interpreter: "
            + _first_diff(interp, jit), config=config)
    return {"status": "ok", "tokens": jit["tokens"]}


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

_ORACLE_FNS = {
    "identity": check_identity,
    "fastmode": check_fastmode,
    "checkpoint": check_checkpoint,
    "faults": check_faults,
    "engine": check_engine,
}


def run_oracles(config: dict,
                oracles: Sequence[str] = ORACLES,
                backends: Sequence[str] = BACKENDS,
                perturb: Optional[Perturbation] = None) -> Dict[str, dict]:
    """Run the selected oracles in order; raises FuzzFailure on the
    first disagreement, returns per-oracle notes otherwise."""
    unknown = set(oracles) - set(_ORACLE_FNS)
    if unknown:
        raise ReproError(
            f"unknown fuzz oracles {sorted(unknown)}; "
            f"pick from {list(ORACLES)}")
    notes: Dict[str, dict] = {}
    for name in oracles:
        if name == "identity":
            notes[name] = check_identity(config, backends=backends,
                                         perturb=perturb)
        else:
            notes[name] = _ORACLE_FNS[name](config)
    return notes
