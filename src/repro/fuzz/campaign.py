"""Fuzz campaigns: drive the mill, minimize what breaks, keep repros.

A campaign walks scenario indices ``start_index .. start_index +
budget - 1`` for one seed, runs the configured oracles on each
scenario's job config, and on disagreement shrinks the scenario and
writes a replayable JSON repro into the corpus directory.  A repro
file is self-contained: the normalized job config (what replay runs,
and a job the service takes as is), the failure, the scenario it was
milled from, and the shrink trail.

``replay`` loads a repro and runs the same oracles on its config — a
fixed repro replays clean, an open one raises the original
:class:`FuzzFailure`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import FuzzFailure, ReproError
from ..harness.metrics import SimulationResult
from .generator import (GeneratorKnobs, Scenario, generate_scenario,
                        scenario_config)
from .oracle import BACKENDS, ORACLES, Perturbation, run_oracles
from .shrink import ShrinkResult, shrink

REPRO_FORMAT = "fireaxe-repro-fuzz-repro"
REPRO_VERSION = 2


@dataclass
class FuzzConfig:
    """Knobs of one campaign."""

    seed: int = 0
    budget: int = 50
    start_index: int = 0
    oracles: Tuple[str, ...] = ORACLES
    backends: Tuple[str, ...] = BACKENDS
    corpus_dir: Union[str, Path] = "results/fuzz-corpus"
    shrink: bool = True
    max_shrink_attempts: int = 128
    #: stop the campaign after this many distinct failures
    max_failures: int = 3
    knobs: GeneratorKnobs = field(default_factory=GeneratorKnobs)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "start_index": self.start_index,
            "oracles": list(self.oracles),
            "backends": list(self.backends),
            "shrink": self.shrink,
            "shapes": list(self.knobs.shapes),
        }


@dataclass
class ScenarioOutcome:
    """What happened to one scenario."""

    index: int
    shape: str
    fingerprint: str
    status: str  # ok | failed | error
    cycles: int = 0
    notes: Dict[str, dict] = field(default_factory=dict)
    message: str = ""
    repro_path: Optional[str] = None


@dataclass
class CampaignReport:
    """Everything a campaign did."""

    config: FuzzConfig
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    stopped_early: bool = False

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def errors(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def summary(self) -> dict:
        shapes: Dict[str, int] = {}
        for o in self.outcomes:
            shapes[o.shape] = shapes.get(o.shape, 0) + 1
        return {
            "scenarios": len(self.outcomes),
            "failed": len(self.failures),
            "errors": len(self.errors),
            "shapes": shapes,
            "elapsed_s": round(self.elapsed_s, 3),
            "stopped_early": self.stopped_early,
            "repros": [o.repro_path for o in self.failures
                       if o.repro_path],
        }


# --------------------------------------------------------------------------
# repro files
# --------------------------------------------------------------------------


def save_repro(corpus_dir: Union[str, Path], scenario: Scenario,
               failure: FuzzFailure,
               original: Optional[Scenario] = None,
               shrink_result: Optional[ShrinkResult] = None) -> Path:
    """Write one replayable repro; returns its path."""
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": REPRO_FORMAT,
        "version": REPRO_VERSION,
        "config": scenario_config(scenario),
        "failure": {
            "oracle": failure.oracle,
            "backend": failure.backend,
            "message": str(failure),
        },
        "scenario": scenario.to_dict(),
    }
    if shrink_result is not None:
        payload["shrink"] = {
            "rounds": shrink_result.rounds,
            "attempts": shrink_result.attempts,
            "trail": shrink_result.trail,
        }
    if original is not None and original.to_dict() != scenario.to_dict():
        payload.setdefault("shrink", {})["original"] = original.to_dict()
    path = corpus / (f"{failure.oracle}-s{scenario.seed}-"
                     f"i{scenario.index}-{scenario.fingerprint}.json")
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def load_repro(path: Union[str, Path]) -> dict:
    """Read a repro file; returns its payload, ``config`` normalized."""
    from ..service.executor import normalize_config  # see oracle._executor
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read fuzz repro {path}: {exc}")
    if not isinstance(payload, dict) \
            or payload.get("format") != REPRO_FORMAT:
        raise ReproError(f"{path} is not a fuzz repro file")
    if payload.get("version") != REPRO_VERSION:
        raise ReproError(
            f"fuzz repro version {payload.get('version')} unsupported "
            f"(this build reads {REPRO_VERSION}, whose repro is a job "
            f"config)")
    return {**payload, "config": normalize_config(payload["config"])}


def list_corpus(corpus_dir: Union[str, Path]) -> List[dict]:
    """Summaries of every repro in ``corpus_dir``, sorted by name."""
    corpus = Path(corpus_dir)
    entries = []
    if not corpus.is_dir():
        return entries
    for path in sorted(corpus.glob("*.json")):
        payload = load_repro(path)
        config, scenario = payload["config"], payload["scenario"]
        entries.append({
            "path": str(path),
            "oracle": payload["failure"]["oracle"],
            "backend": payload["failure"]["backend"],
            "shape": scenario["shape"],
            "seed": scenario["seed"],
            "index": scenario["index"],
            "num_partitions": len(config.get("noc")
                                  or config["extract"]) + 1,
            "cycles": config["cycles"],
        })
    return entries


def replay(path: Union[str, Path],
           oracles: Optional[Sequence[str]] = None,
           backends: Sequence[str] = BACKENDS) -> Dict[str, dict]:
    """Re-run a repro through its oracle (or an explicit oracle list).

    Raises the scenario's :class:`FuzzFailure` if it still reproduces.
    """
    payload = load_repro(path)
    if oracles is None:
        oracles = (payload["failure"]["oracle"],)
    return run_oracles(payload["config"], oracles=oracles,
                       backends=backends)


# --------------------------------------------------------------------------
# the campaign loop
# --------------------------------------------------------------------------


def run_campaign(config: FuzzConfig,
                 perturb: Optional[Perturbation] = None,
                 registry=None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run one campaign.

    Args:
        config: campaign knobs.
        perturb: optional result perturbation injected into the
            identity oracle — the self-test hook proving the harness
            catches planted backend bugs.
        registry: optional
            :class:`~repro.telemetry.RunRegistry`; the campaign summary
            is archived there as one run record.
        progress: optional line sink (e.g. ``print``) for live status.
    """
    report = CampaignReport(config=config)
    say = progress or (lambda line: None)
    t0 = time.monotonic()

    def check(sc: Scenario):
        return run_oracles(scenario_config(sc), oracles=config.oracles,
                           backends=config.backends, perturb=perturb)

    for index in range(config.start_index,
                       config.start_index + config.budget):
        scenario = generate_scenario(config.seed, index, config.knobs)
        outcome = ScenarioOutcome(index=index, shape=scenario.shape,
                                  fingerprint=scenario.fingerprint,
                                  status="ok", cycles=scenario.cycles)
        try:
            outcome.notes = check(scenario)
        except FuzzFailure as failure:
            outcome.status = "failed"
            minimized, shrink_result = scenario, None
            if config.shrink:
                say(f"[{index}] {scenario.shape}: FAILED "
                    f"({failure.oracle}) — shrinking")
                shrink_result = shrink(
                    scenario, check, failure=failure,
                    max_attempts=config.max_shrink_attempts)
                minimized = shrink_result.scenario
                failure = shrink_result.failure
            path = save_repro(config.corpus_dir, minimized, failure,
                              original=scenario,
                              shrink_result=shrink_result)
            outcome.repro_path = str(path)
            outcome.message = str(failure)
            say(f"[{index}] repro written: {path}")
        except ReproError as exc:
            # the scenario crashed outright (generator or harness bug
            # rather than a backend disagreement) — record, keep going
            outcome.status = "error"
            outcome.message = f"{type(exc).__name__}: {exc}"
            say(f"[{index}] {scenario.shape}: ERROR {outcome.message}")
        else:
            say(f"[{index}] {scenario.shape}: ok")
        report.outcomes.append(outcome)
        if len(report.failures) >= config.max_failures:
            report.stopped_early = True
            say(f"stopping early: {config.max_failures} failures")
            break

    report.elapsed_s = time.monotonic() - t0
    if registry is not None:
        registry.archive(_summary_result(report), name="fuzz",
                         backend="+".join(config.backends),
                         config=config.as_dict(),
                         extra={"fuzz": report.summary()})
    return report


def _summary_result(report: CampaignReport) -> SimulationResult:
    """Aggregate the campaign into one archivable result record."""
    total_cycles = sum(o.cycles for o in report.outcomes)
    total_tokens = sum(int((o.notes.get("identity") or {}).get("tokens")
                           or 0) for o in report.outcomes)
    return SimulationResult(
        target_cycles=total_cycles, wall_ns=report.elapsed_s * 1e9,
        rate_hz=(total_cycles / report.elapsed_s
                 if report.elapsed_s > 0 else 0.0),
        tokens_transferred=total_tokens,
        detail={"fuzz": report.summary()})
