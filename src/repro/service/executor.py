"""The job config — the one description of a job — and its execution.

A job config is a plain JSON dict naming what to run.  Three kinds:

* ``{"kind": "simulate", ...}`` — compile a circuit (from a ``circuit``
  file path or inline ``circuit_text``), partition it per ``extract``
  (module groups) or ``noc`` (router-index groups), optionally merge
  extract groups onto one FPGA (``fame5``) and harden every link over a
  seeded fault schedule (``faults``, :class:`FaultSpec`'s fields), and
  run it on one of the execution backends (``auto``, ``inproc``,
  ``process``),
* ``{"kind": "experiment", "experiment": NAME}`` — one of the paper's
  table/figure experiments; the final partitioned run it performs is
  what gets archived (and therefore cached),
* ``{"kind": "farm", "hosts": MANIFEST, ...}`` — a simulate-shaped run
  placed across the simulated run farm (rollback + re-placement on
  host death); ``kill_host``/``kill_at_pass`` inject a host loss.

:func:`normalize_config` fills every default *before* the config is
fingerprinted, so semantically identical requests — one spelling
``cycles`` explicitly, one relying on the default — hash to the same
cache key.  This is the function that decides cache identity; keep it
deterministic and order-insensitive.  Its output is what every door
builds from (:func:`compile_design`, :func:`build_simulation`,
``FarmManager(build, config)`` — the service and every CLI verb alike) and what
every archive site hands to ``RunRegistry.archive``, so one job has one
fingerprint wherever it ran.  :func:`plan_key` hashes the part of it a
compile reads, which is what the service's plan cache keys on.

``should_stop`` threads the service's cancellation signal into the
harness's per-pass ``stop`` hook, so a cancel lands within one
wavefront pass instead of after the run — except on the ``process``
backend, which takes no stop hook and cancels before start only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import ServiceError
from ..fireripper import (FireRipper, NoCPartitionSpec, PartitionGroup,
                          PartitionSpec)
from ..firrtl import Circuit, parse_circuit
from ..observability.tracer import event_to_dict
from ..parallel import normalize_backend
from ..platform import (
    ETHERNET_100G,
    HOST_PCIE,
    PCIE_P2P,
    QSFP_AURORA,
)
from ..reliability import FaultSpec, harden_links
from ..telemetry import config_fingerprint

#: transport name -> modelled transport profile (the CLI shares this)
TRANSPORTS = {
    "qsfp": QSFP_AURORA,
    "pcie": PCIE_P2P,
    "host-pcie": HOST_PCIE,
    "ethernet": ETHERNET_100G,
}

#: the job facts both simulate-shaped kinds share (the CLI's flags read
#: their defaults from here, through ``SIMULATE_DEFAULTS``)
_JOB_DEFAULTS = {
    "mode": "exact",
    "transport": "qsfp",
    "freq": 30.0,
    "cycles": 1000,
}

SIMULATE_DEFAULTS = {**_JOB_DEFAULTS, "backend": "auto"}

#: the farm places the run itself, so it takes no ``backend``
FARM_DEFAULTS = {
    **_JOB_DEFAULTS,
    "checkpoint_every": 100,
    "kill_host": "",
    "kill_at_pass": 0,
}

_DEFAULTS = {"simulate": SIMULATE_DEFAULTS, "farm": FARM_DEFAULTS}

#: the ``faults`` key is FaultSpec's own fields, defaults included
_FAULT_DEFAULTS = {f.name: f.default for f in fields(FaultSpec)}


@dataclass
class ExecutionOutcome:
    """One executed job: the result, the backend that actually ran it,
    and extra top-level keys for the archived record."""

    result: object
    backend: str
    extra: Optional[dict] = None


def _refuse_repeats(groups: list, what: str) -> list:
    """``groups`` as they are, unless a member appears twice, within
    one group or across two: a repeat would fingerprint apart from the
    same partition spelled once."""
    seen = set()
    for member in (m for group in groups for m in group):
        if member in seen:
            raise ServiceError(f"{what} {member!r} appears more than once")
        seen.add(member)
    return groups


def _normalize_extract(extract, distinct: bool = True) -> List[List[str]]:
    if not isinstance(extract, (list, tuple)) or not extract:
        raise ServiceError(
            "simulate config wants a non-empty 'extract' list "
            "(one entry per FPGA)")
    groups = []
    for entry in extract:
        if isinstance(entry, str):
            paths = [p for p in entry.split(",") if p]
        elif isinstance(entry, (list, tuple)):
            paths = [str(p) for p in entry]
        else:
            raise ServiceError(
                f"extract entries are strings or lists, got {entry!r}")
        if not paths:
            raise ServiceError("empty extract group")
        groups.append(paths)
    return _refuse_repeats(groups, "instance path") if distinct else groups


def _group_name(index: int) -> str:
    return f"fpga{index}"


def _normalize_noc(noc) -> List[List[int]]:
    if not isinstance(noc, (list, tuple)) or not noc or not all(
            isinstance(group, (list, tuple)) and group for group in noc):
        raise ServiceError("'noc' wants a non-empty list of non-empty "
                           "router-index lists (one per FPGA)")
    return _refuse_repeats([[int(index) for index in group]
                            for group in noc], "router index")


def _normalize_fame5(fame5, n_groups: int) -> Dict[str, List[str]]:
    """Merged name -> two or more extract groups, each merged once."""
    if not isinstance(fame5, dict) or not fame5 or not all(
            isinstance(group, (list, tuple)) and len(group) >= 2
            for group in fame5.values()):
        raise ServiceError("'fame5' wants {merged name: [two or more "
                           "extract groups]}")
    members = [m for group in fame5.values() for m in group]
    valid = [_group_name(i) for i in range(n_groups)]
    if not all(m in valid for m in members) \
            or len(set(members)) < len(members):
        raise ServiceError(f"fame5 merges {members}; each must be one of "
                           f"the extract groups {valid}, merged once")
    return {str(name): list(group) for name, group in fame5.items()}


def _normalize_faults(faults) -> dict:
    """Every FaultSpec field, defaults filled; the rates are of disjoint
    outcomes, so each lies in [0, 1] and they sum to at most 1."""
    if not isinstance(faults, dict) or set(faults) - set(_FAULT_DEFAULTS):
        raise ServiceError(f"'faults' wants FaultSpec fields: "
                           f"{', '.join(_FAULT_DEFAULTS)}")
    normalized = {
        key: [[float(x) for x in window] for window in faults.get(key, d)]
        if isinstance(d, tuple) else type(d)(faults.get(key, d))
        for key, d in _FAULT_DEFAULTS.items()}
    rates = [v for k, v in normalized.items() if k.endswith("_rate")]
    if not all(0.0 <= rate <= 1.0 for rate in rates) or sum(rates) > 1.0:
        raise ServiceError(f"fault rates {rates} must each lie in [0, 1] "
                           f"and sum to at most 1")
    return normalized


def normalize_config(config: dict) -> dict:
    """Validate and canonicalize a job config — defaults filled, types
    coerced — so the fingerprint of two equivalent requests matches.
    The output is the one description of a job: what the service
    queues, what every CLI verb builds from, and what every archive
    site fingerprints."""
    if not isinstance(config, dict):
        raise ServiceError(f"job config must be a dict, got "
                           f"{type(config).__name__}")
    kind = config.get("kind", "simulate")
    if kind == "experiment":
        name = config.get("experiment")
        if not name or not isinstance(name, str):
            raise ServiceError(
                "experiment config wants an 'experiment' name")
        unknown = set(config) - {"kind", "experiment"}
        if unknown:
            raise ServiceError(
                f"unknown experiment config key(s): "
                f"{', '.join(sorted(unknown))}")
        return {"kind": "experiment", "experiment": name}
    if kind not in _DEFAULTS:
        raise ServiceError(
            f"unknown job kind {kind!r}; valid: simulate, experiment, "
            f"farm")
    normalized = {"kind": kind}
    if "circuit_text" in config:
        normalized["circuit_text"] = str(config["circuit_text"])
    elif "circuit" in config:
        normalized["circuit"] = str(config["circuit"])
    else:
        raise ServiceError(
            f"{kind} config wants 'circuit' (a file path) or "
            f"'circuit_text' (inline IR)")
    if kind == "simulate" and ("noc" in config) == ("extract" in config):
        raise ServiceError(
            "simulate config wants exactly one of 'extract' (module "
            "groups) and 'noc' (router-index groups)")
    if kind == "simulate" and "noc" in config:
        normalized["noc"] = _normalize_noc(config["noc"])
    else:
        normalized["extract"] = _normalize_extract(config.get("extract"))
    if kind == "farm":
        # the manifest is canonicalized through FarmSpec so two
        # spellings of the same farm fingerprint identically
        from ..farm import FarmSpec
        normalized["hosts"] = FarmSpec.from_dict(
            config.get("hosts") or {}).to_dict()
        colocate = config.get("colocate")
        # overlapping co-location groups merge, so a repeat is allowed
        normalized["colocate"] = \
            _normalize_extract(colocate, distinct=False) if colocate else []
    for key, default in _DEFAULTS[kind].items():
        normalized[key] = type(default)(config.get(key, default))
    if normalized["transport"] not in TRANSPORTS:
        raise ServiceError(
            f"unknown transport {normalized['transport']!r}; "
            f"valid: {', '.join(sorted(TRANSPORTS))}")
    if "backend" in normalized:
        # a typo is refused here (UnknownBackendError), not after the
        # job has held a queue slot; every spelling of one backend
        # shares one cache entry
        normalized["backend"] = normalize_backend(normalized["backend"])
    if normalized["cycles"] < 1:
        raise ServiceError("cycles must be >= 1")
    # the mill is the only caller with values for these, so only a
    # simulate config takes them; an absent key stays absent
    if kind == "simulate" and "fame5" in config:
        normalized["fame5"] = _normalize_fame5(
            config["fame5"], len(normalized.get("extract", ())))
    if kind == "simulate" and "faults" in config:
        normalized["faults"] = _normalize_faults(config["faults"])
    unknown = set(config) - set(normalized)
    if unknown:
        raise ServiceError(
            f"unknown {kind} config key(s): "
            f"{', '.join(sorted(unknown))}")
    return normalized


def load_circuit(config: dict) -> Circuit:
    """Parse the circuit a normalized simulate or farm config names."""
    if "circuit_text" in config:
        return parse_circuit(config["circuit_text"])
    try:
        return parse_circuit(Path(config["circuit"]).read_text())
    except OSError as exc:
        raise ServiceError(f"cannot read circuit "
                           f"{config['circuit']!r}: {exc}")


def partition_spec(config: dict) -> PartitionSpec:
    """The one place a :class:`PartitionSpec` is made from a job
    description: ``extract`` group ``i`` is partition ``fpga{i}``,
    ``noc`` router-index groups go to the NoC-partition-mode selector."""
    if "noc" in config:
        return PartitionSpec(mode=config["mode"],
                             noc=NoCPartitionSpec.make(config["noc"]))
    groups = [PartitionGroup.make(_group_name(i), paths)
              for i, paths in enumerate(config["extract"])]
    return PartitionSpec(mode=config["mode"], groups=groups)


#: the normalized keys :func:`compile_design` reads, and so the only
#: ones a plan's identity hangs on
PLAN_KEYS = ("kind", "circuit_text", "extract", "noc", "mode")


def plan_key(config: dict) -> Optional[str]:
    """The fingerprint of the design a normalized config compiles to
    (its :data:`PLAN_KEYS`), or None when no compile may be reused: a
    ``circuit`` path names a file that can change between jobs, and
    an experiment compiles its own designs."""
    if "circuit_text" not in config:
        return None
    return config_fingerprint(
        {key: config[key] for key in PLAN_KEYS if key in config})


def compile_design(config: dict):
    """Parse and FireRipper-compile the circuit a normalized simulate
    or farm config names (the compile itself is memoized by content,
    so a ``circuit`` path re-read unchanged reuses its design)."""
    return FireRipper(partition_spec(config)).compile(load_circuit(config))


def build_simulation(config: dict, design=None, **sinks):
    """Wire the partitioned simulation a normalized simulate or farm
    config describes (no run), compiling it first unless the caller
    hands back the ``design`` :func:`compile_design` made of this
    config — a rebuild after a rollback re-wires, it does not re-parse.
    ``fame5`` merges reach the one ``design.build_simulation``, and
    ``faults`` harden every link over that seeded schedule.  ``sinks``
    — ``record_outputs`` / ``tracer`` / ``telemetry`` — are forwarded."""
    if design is None:
        design = compile_design(config)
    sim = design.build_simulation(
        TRANSPORTS[config["transport"]], host_freq_mhz=config["freq"],
        fame5_merge=config.get("fame5"), **sinks)
    if "faults" in config:
        harden_links(sim, FaultSpec(**config["faults"]))
    return sim


def _obs_extra(corr_id: str, worker_corr, tracer,
               step_plane=None) -> dict:
    """The ``{"obs": ...}`` extra of an archived record (empty when
    there is nothing to say) — observability identity only, never part
    of the cache fingerprint or the result detail.  ``step_plane`` is
    the run's ``{partition: compile verdict}``, so a slow run explains
    itself."""
    obs: dict = {}
    if step_plane:
        obs["step_plane"] = dict(step_plane)
    if corr_id:
        obs["corr_id"] = corr_id
        if worker_corr:
            obs["worker_corr"] = dict(worker_corr)
    if tracer is not None and len(tracer):
        obs["trace_events"] = [event_to_dict(e)
                               for e in tracer.events]
    return {"obs": obs} if obs else {}


def execute_config(config: dict, telemetry=None,
                   should_stop: Optional[Callable[[], bool]] = None,
                   corr_id: str = "",
                   events=None,
                   tracer=None,
                   design=None) -> ExecutionOutcome:
    """Run one normalized job config to completion (or until
    ``should_stop`` fires) and return the outcome.  A simulate or farm
    job builds from ``design`` when given one — the
    :func:`compile_design` of a config with the same :func:`plan_key`
    — and compiles its own otherwise.

    ``corr_id``/``events``/``tracer`` thread the observability plane
    through: the correlation id rides into every worker the
    run forks (and is echoed back per partition), lifecycle events for
    the execution fabric land in ``events``, and captured trace spans
    are archived under the record's ``obs`` extra for stitching."""
    kind = config.get("kind", "simulate")
    if design is None and kind in _DEFAULTS:
        design = compile_design(config)

    def build():
        sim = build_simulation(config, design, telemetry=telemetry,
                               tracer=tracer)
        sim.corr_id = corr_id
        if events is not None:
            sim.events = events
        return sim

    if kind == "simulate":
        sim = build()
        stop = None
        if should_stop is not None and config["backend"] != "process":
            def stop(_sim, _check=should_stop):  # noqa: F811
                return _check()
        elif should_stop is not None and should_stop():
            # the process backend takes no stop hook: like the farm and
            # experiment kinds, it cancels before start only
            raise ServiceError("cancelled before start")
        result = sim.run(config["cycles"], stop=stop,
                         backend=config["backend"])
        return ExecutionOutcome(
            result, sim.last_run_backend or "inproc",
            extra=_obs_extra(corr_id, sim.last_worker_corr, tracer,
                             sim.last_jit_report) or None)
    if kind == "farm":
        if should_stop is not None and should_stop():
            raise ServiceError("cancelled before start")
        # imported lazily, mirroring the experiment branch
        from ..farm import FarmManager
        manager = FarmManager(build, config)
        report = manager.launch()
        extra = {"farm": report.to_extra(),
                 **_obs_extra(corr_id, manager.backend.last_worker_corr,
                              tracer, manager.backend.last_jit_report)}
        return ExecutionOutcome(report.result, "farm", extra=extra)
    if kind == "experiment":
        # imported lazily: the experiment modules pull in every target
        # and sweep, which a simulate-only service never needs
        from ..experiments.runner import run_experiment
        from ..observability import profile_session
        if should_stop is not None and should_stop():
            raise ServiceError("cancelled before start")
        with profile_session() as session:
            text = run_experiment(config["experiment"])
        if not session.results:
            raise ServiceError(
                f"experiment {config['experiment']!r} performed no "
                "partitioned run to archive")
        extra = {"experiment": {"name": config["experiment"],
                                "text": text},
                 **_obs_extra(corr_id, {}, tracer)}
        return ExecutionOutcome(session.results[-1], "inproc",
                                extra=extra)
    raise ServiceError(f"unknown job kind {kind!r}")
