"""Differential oracles — the scenario mill's back half.

Each oracle takes one :class:`~repro.fuzz.generator.Scenario`, runs it
through one or more execution configurations, and raises
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
* :func:`check_faults` — a run over fault-injected links hardened by
  the reliable link layer must survive (no give-up, no deadlock) and
  deliver the same functional result as the clean run, never faster —
  and bit-for-bit the digest of the same hardened run interpreted.

:func:`check_identity` and :func:`check_faults` also fail when a
partition did not take the compiled step plane, so the next JIT cliff
shows up as a shrunk corpus file instead of a slow run.

Backends that cannot run on the host (no ``fork``, no sockets) or
cannot take the topology are *skipped*, not failed — the oracles
measure agreement among the configurations that can run.

Oracles re-build the simulation for every configuration rather than
reusing one (a run mutates simulator state); determinism of the
generator makes the rebuilds equivalent.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    BackendUnavailableError,
    FuzzFailure,
    ReproError,
    UnsupportedTopologyError,
)
from ..harness import MonolithicSimulation
from ..harness.stepjit import stepjit_enabled
from ..reliability import FaultSpec, capture_state, harden_links, restore_state
from . import generator
from .generator import Scenario

#: every execution backend the differential harness covers
BACKENDS = ("inproc", "process")

#: all oracles, in the order a campaign runs them
ORACLES = ("identity", "fastmode", "checkpoint", "faults")

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


def _require_compiled(oracle: str, backend: str, sim,
                      scenario: Scenario) -> None:
    """Fail when a partition of ``sim``'s last run was not compiled
    (unless the JIT was switched off for the whole run)."""
    missed = {name: verdict
              for name, verdict in sorted(sim.last_jit_report.items())
              if not verdict.startswith("compiled")}
    if missed and stepjit_enabled(sim):
        raise FuzzFailure(
            oracle, backend,
            f"partitions left the compiled step plane: {missed}",
            scenario=scenario.to_dict())


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


def check_identity(scenario: Scenario,
                   backends: Sequence[str] = BACKENDS,
                   perturb: Optional[Perturbation] = None) -> dict:
    """Run the scenario on every backend; all must agree bit-for-bit
    with the in-process reference."""
    digests: Dict[str, dict] = {}
    skipped: Dict[str, str] = {}
    for backend in backends:
        sim = generator.make_sim(scenario)
        try:
            result = sim.run(scenario.cycles, backend=backend)
        except (BackendUnavailableError,
                UnsupportedTopologyError) as exc:
            skipped[backend] = str(exc)
            continue
        _require_compiled("identity", backend, sim, scenario)
        if perturb is not None:
            perturb(backend, sim, result)
        digests[backend] = functional_digest(sim, result)
    if "inproc" not in digests:
        raise FuzzFailure(
            "identity", "inproc",
            f"in-process reference could not run: "
            f"{skipped.get('inproc', 'unknown')}",
            scenario=scenario.to_dict())
    reference = digests["inproc"]
    for backend, digest in digests.items():
        if digest != reference:
            raise FuzzFailure(
                "identity", backend, _first_diff(reference, digest),
                scenario=scenario.to_dict())
    return {"compared": sorted(digests), "skipped": skipped,
            "tokens": reference["tokens"]}


# --------------------------------------------------------------------------
# fastmode: exact == monolithic, fast >= exact
# --------------------------------------------------------------------------


def _done_log(sim):
    return sim.output_log.get(("base", "io_out"), [])


def _partitioned_done(scenario: Scenario, mode: str) -> Tuple[int, dict]:
    """(done cycle, done token) of the partitioned run in ``mode``."""
    sim = generator.make_sim(scenario, mode=mode)

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
        f"{mode}-mode partitioned run", scenario=scenario.to_dict())


def check_fastmode(scenario: Scenario) -> dict:
    """Exact-mode must match monolithic cycle-for-cycle; fast-mode may
    run the target ahead but never finishes *earlier* than exact, and
    both must deliver the same final payload."""
    if not generator.has_done_output(scenario):
        return {"status": "skipped", "reason": "target has no done output"}
    from ..errors import CompileError
    mono = MonolithicSimulation(
        generator.build_scenario_circuit(scenario))
    mono_cycles = mono.run_until(
        "done", 1, max_cycles=MAX_DONE_CYCLES).target_cycles

    exact_cycles, exact_token = _partitioned_done(scenario, mode="exact")
    if exact_cycles != mono_cycles:
        raise FuzzFailure(
            "fastmode", "",
            f"exact-mode done cycle {exact_cycles} != monolithic "
            f"{mono_cycles}", scenario=scenario.to_dict())
    try:
        fast_cycles, fast_token = _partitioned_done(scenario, mode="fast")
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
            f"early", scenario=scenario.to_dict())
    if fast_token != exact_token:
        raise FuzzFailure(
            "fastmode", "",
            "fast-mode final payload differs from exact-mode: "
            + _first_diff(exact_token, fast_token),
            scenario=scenario.to_dict())
    return {"status": "ok", "mono_cycles": mono_cycles,
            "exact_cycles": exact_cycles, "fast_cycles": fast_cycles}


# --------------------------------------------------------------------------
# checkpoint: capture/restore round-trip equivalence
# --------------------------------------------------------------------------


def check_checkpoint(scenario: Scenario,
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
    mid = max(1, scenario.cycles // 2)

    straight_sim = generator.make_sim(scenario)
    straight = functional_digest(straight_sim,
                                 straight_sim.run(scenario.cycles))

    first = generator.make_sim(scenario)
    first.run(mid)
    state = json.loads(json.dumps(capture_state(first)))
    if perturb_state is not None:
        state = perturb_state(state)

    resumed_sim = generator.make_sim(scenario)
    restore_state(resumed_sim, state)
    resumed = functional_digest(resumed_sim,
                                resumed_sim.run(scenario.cycles))

    keys = ("target_cycles", "tokens", "per_partition_cycles",
            "outputs")
    a = {k: straight[k] for k in keys}
    b = {k: resumed[k] for k in keys}
    if a != b:
        raise FuzzFailure(
            "checkpoint", "",
            f"resumed run diverged from straight run (capture at cycle "
            f"{mid}): " + _first_diff(a, b),
            scenario=scenario.to_dict())
    return {"status": "ok", "capture_cycle": mid,
            "fame5": generator.has_fame5(scenario)}


# --------------------------------------------------------------------------
# faults: reliable links under a seeded fault schedule
# --------------------------------------------------------------------------


def check_faults(scenario: Scenario) -> dict:
    """Harden every link, inject the scenario's seeded fault schedule,
    and require the run to survive with clean-run functional results.

    The timing overlay may only get *slower* (retries burn link time);
    payloads, cycle counts and token ordering must be untouched.  The
    hardened run's full digest (``detail`` included) must equal the
    same scenario's under ``stepjit=False``."""
    fault = dict(scenario.params.get("fault") or {})
    spec = FaultSpec(
        seed=scenario.seed * 1_000_003 + scenario.index,
        drop_rate=float(fault.get("drop_rate", 0.0)),
        corrupt_rate=float(fault.get("corrupt_rate", 0.0)),
        spike_rate=float(fault.get("spike_rate", 0.0)))
    if spec.fault_rate == 0.0:
        return {"status": "skipped", "reason": "fault-free schedule"}

    clean_sim = generator.make_sim(scenario)
    clean_result = clean_sim.run(scenario.cycles)
    clean = functional_digest(clean_sim, clean_result)

    def hardened(stepjit: Optional[bool]):
        sim = generator.make_sim(scenario)
        harden_links(sim, spec)
        sim.stepjit = stepjit
        try:
            return sim, sim.run(scenario.cycles)
        except ReproError as exc:
            raise FuzzFailure(
                "faults", "",
                f"hardened run did not survive the fault schedule: "
                f"{type(exc).__name__}: {exc}",
                scenario=scenario.to_dict())

    hard_sim, hard_result = hardened(None)
    _require_compiled("faults", "", hard_sim, scenario)
    hard = functional_digest(hard_sim, hard_result)
    interp = functional_digest(*hardened(False))
    if interp != hard:
        raise FuzzFailure(
            "faults", "",
            "hardened run differs between the compiled step plane and "
            "the interpreter: " + _first_diff(interp, hard),
            scenario=scenario.to_dict())
    # the timing breakdown legitimately differs (retries); compare the
    # payload-carrying fields
    keys = ("target_cycles", "per_partition_cycles", "outputs")
    a = {k: clean[k] for k in keys}
    b = {k: hard[k] for k in keys}
    if a != b:
        raise FuzzFailure(
            "faults", "",
            "hardened run's functional results differ from the clean "
            "run: " + _first_diff(a, b), scenario=scenario.to_dict())
    if hard_result.wall_ns < clean_result.wall_ns:
        raise FuzzFailure(
            "faults", "",
            f"hardened run was faster than the clean run "
            f"({hard_result.wall_ns} < {clean_result.wall_ns} ns) — "
            f"retries cannot reduce link time",
            scenario=scenario.to_dict())
    return {"status": "ok", "fault_rate": spec.fault_rate,
            "retries": hard_result.detail.get("reliability", {})}


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

_ORACLE_FNS = {
    "identity": check_identity,
    "fastmode": check_fastmode,
    "checkpoint": check_checkpoint,
    "faults": check_faults,
}


def run_oracles(scenario: Scenario,
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
            notes[name] = check_identity(scenario, backends=backends,
                                         perturb=perturb)
        else:
            notes[name] = _ORACLE_FNS[name](scenario)
    return notes
