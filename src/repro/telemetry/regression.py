"""Performance-regression detection against recorded history.

The timing overlay prices every host action in *modelled* time, so the
achieved simulation rate of a fixed configuration is a deterministic
number — a behavioural fingerprint of the whole pipeline (compiler,
harness, credit logic, transport pricing).  That makes rate regression
checking exact: any code change that slows the modelled hot path (or
mis-prices an action) moves a canonical rate, and the detector flags it
without wall-clock noise.

Three kinds of checks, all threshold-configurable:

* :func:`measure_canonical` / :func:`check_rates` — run a small suite
  of canonical partitioned configurations and compare each modelled
  rate against the committed baseline (``results/BENCH_rates.json``);
  a rate more than ``threshold`` below baseline is a violation.
* :func:`check_run` — judge a freshly archived run against the
  :class:`~repro.telemetry.runs.RunRegistry` trajectory of its config
  fingerprint (the latest prior run of the same workload).
* :func:`check_bench_files` — validate the committed
  ``results/BENCH_*.json`` measurements against their own bounds (the
  null-tracer overhead cap, the inproc-vs-process bit-identity, the
  fuzz corpus compiling collision-free over every shape).

The CI ``bench-regression`` job runs all of this via ``repro regress``
and must fail on a >10% rate degradation — which the job proves by
also running with ``--inject-slowdown`` and expecting failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .runs import RunRegistry

RATES_FILE = "BENCH_rates.json"
RATES_FORMAT = "fireaxe-repro-canonical-rates"
DEFAULT_THRESHOLD = 0.10


def _pair_rate(mode: str, transport_name: str,
               cycles: int = 200) -> float:
    # imported lazily: the compiler stack imports the harness, which
    # imports this package — a module-level import would be circular
    from ..fireripper import FireRipper, PartitionGroup, PartitionSpec
    from ..platform import PCIE_P2P, QSFP_AURORA

    transport = {"qsfp": QSFP_AURORA, "pcie": PCIE_P2P}[transport_name]
    from ..targets import make_comb_pair_circuit
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    sim = design.build_simulation(transport)
    return sim.run(cycles, backend="inproc").rate_hz


#: name -> zero-argument callable returning a deterministic modelled
#: rate in Hz
CANONICAL_RATES: Dict[str, Callable[[], float]] = {
    "pair_exact_qsfp": lambda: _pair_rate("exact", "qsfp"),
    "pair_fast_qsfp": lambda: _pair_rate("fast", "qsfp"),
    "pair_exact_pcie": lambda: _pair_rate("exact", "pcie"),
}


def measure_canonical(slowdown: float = 0.0) -> Dict[str, float]:
    """Measure every canonical configuration's modelled rate.

    ``slowdown`` scales the measured rates down — the CI self-test's
    injected degradation (0.15 models a 15% slower simulator).
    """
    scale = 1.0 - slowdown
    return {name: fn() * scale
            for name, fn in CANONICAL_RATES.items()}


@dataclass
class Violation:
    """One detected regression."""

    source: str       # file or run the baseline came from
    metric: str
    baseline: float
    measured: float
    limit_pct: float  # allowed degradation

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0
        return (self.measured / self.baseline - 1.0) * 100.0

    def describe(self) -> str:
        return (f"{self.source}: {self.metric} degraded "
                f"{self.delta_pct:+.1f}% "
                f"({self.baseline:.6g} -> {self.measured:.6g}, "
                f"limit -{self.limit_pct:.0f}%)")


def save_baseline(rates: Dict[str, float],
                  results_dir: Union[str, Path]) -> Path:
    path = Path(results_dir) / RATES_FILE
    payload = {"format": RATES_FORMAT,
               "rates_hz": dict(sorted(rates.items()))}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_baseline(results_dir: Union[str, Path]
                  ) -> Optional[Dict[str, float]]:
    path = Path(results_dir) / RATES_FILE
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("format") != RATES_FORMAT:
        return None
    return payload.get("rates_hz", {})


def check_rates(measured: Dict[str, float],
                baseline: Dict[str, float],
                threshold: float = DEFAULT_THRESHOLD
                ) -> List[Violation]:
    """Rates more than ``threshold`` below their baseline."""
    violations = []
    for name in sorted(baseline):
        if name not in measured:
            continue
        if measured[name] < baseline[name] * (1.0 - threshold):
            violations.append(Violation(
                RATES_FILE, name, baseline[name], measured[name],
                threshold * 100.0))
    return violations


def check_run(record: dict, registry: RunRegistry,
              threshold: float = DEFAULT_THRESHOLD
              ) -> List[Violation]:
    """Judge one archived run against the newest *prior* run sharing
    its config fingerprint (no history, no verdict)."""
    history = registry.trajectory(record.get("fingerprint", ""))
    run_id = record.get("run_id")
    prior = [r for r in history if r.get("run_id") != run_id]
    if not prior:
        return []
    reference = prior[-1]
    rate = record.get("rate_hz", 0.0)
    base = reference.get("rate_hz", 0.0)
    if base > 0 and rate < base * (1.0 - threshold):
        return [Violation(
            reference.get("run_id", "prior-run"), "rate_hz",
            base, rate, threshold * 100.0)]
    return []


#: the committed measurements' own bounds: per results file, one
#: ``(key, op, bound)`` row per check.  ``op`` names what must hold —
#: ``"<="`` / ``">="`` against ``bound``, or ``"true"`` for a
#: functional flag.  ``bound`` is a number, or ``(key, default)``
#: naming the field of the same file that carries it (``default``
#: None: no bound, no check).  A missing file or key is never a
#: violation.
BENCH_CHECKS = {
    # null sinks against the untraced run; live sinks against the
    # clean JIT run of the same design
    "BENCH_trace_overhead.json": (
        ("null_overhead_pct", "<=", ("bound_pct", 5.0)),
        ("null_metrics_overhead_pct", "<=", ("bound_pct", 5.0)),
        ("process_null_overhead_pct", "<=", ("bound_pct", 5.0)),
        ("recording_vs_jit_x", "<=", ("recording_vs_jit_bound_x", 2.0)),
        ("sampling_vs_jit_pct", "<=",
         ("sampling_vs_jit_bound_pct", 25.0))),
    "BENCH_token_plane.json": (
        ("packed_codec_speedup", ">=", 5.0),
        ("detail_bit_identical", "true", None)),
    "BENCH_fuzz_corpus.json": (
        ("compile_failures", "<=", 0.0),
        ("distinct_fingerprints", ">=", ("scenarios", None)),
        ("shapes_covered", ">=", ("shapes_total", None))),
    "BENCH_service.json": (
        ("cached_speedup", ">=", ("cached_speedup_floor", 10.0)),
        ("detail_bit_identical", "true", None),
        # repeats re-simulated: the cache failed its one job
        ("executions", "<=", ("distinct_configs", None))),
    "BENCH_service_metrics.json": (
        ("metrics_scrape_ok", "true", None),
        ("corr_joined", "true", None),
        ("events_logged", ">=", 1.0)),
    "BENCH_stepjit.json": (
        ("speedup", ">=", ("speedup_floor", 5.0)),
        ("detail_bit_identical", "true", None),
        ("hardened_speedup", ">=", ("hardened_speedup_floor", 2.0)),
        ("hardened_bit_identical", "true", None),
        ("streaming_speedup", ">=", ("streaming_speedup_floor", 5.0)),
        ("streaming_bit_identical", "true", None)),
}


def check_bench_files(results_dir: Union[str, Path],
                      threshold: float = DEFAULT_THRESHOLD
                      ) -> List[Violation]:
    """Validate committed benchmark measurements against their own
    bounds (:data:`BENCH_CHECKS`)."""
    violations: List[Violation] = []
    for name, checks in BENCH_CHECKS.items():
        try:
            payload = json.loads((Path(results_dir) / name).read_text())
        except (OSError, json.JSONDecodeError):
            continue
        for key, op, bound in checks:
            value = payload.get(key)
            if value is None:
                continue
            if op == "true":
                if not value:
                    violations.append(
                        Violation(name, key, 1.0, 0.0, 0.0))
                continue
            if isinstance(bound, tuple):
                bound = payload.get(*bound)
                if bound is None:
                    continue
            if value > bound if op == "<=" else value < bound:
                violations.append(Violation(
                    name, key, float(bound), float(value), 0.0))
    return violations


def run_gate(results_dir: Union[str, Path] = "results",
             threshold: float = DEFAULT_THRESHOLD,
             inject_slowdown: float = 0.0,
             update: bool = False,
             runs_dir: Optional[Union[str, Path]] = None
             ) -> "GateReport":
    """The full ``repro regress`` pass; see :class:`GateReport`."""
    measured = measure_canonical(slowdown=inject_slowdown)
    if update:
        path = save_baseline(measured, results_dir)
        return GateReport(measured=measured, baseline=measured,
                          updated_path=path)
    baseline = load_baseline(results_dir)
    violations: List[Violation] = []
    if baseline:
        violations.extend(check_rates(measured, baseline, threshold))
    violations.extend(check_bench_files(results_dir, threshold))
    if runs_dir is not None:
        registry = RunRegistry(runs_dir)
        records = registry.list_runs()
        if records:
            violations.extend(
                check_run(records[-1], registry, threshold))
    return GateReport(measured=measured, baseline=baseline or {},
                      violations=violations)


@dataclass
class GateReport:
    """Outcome of one regression-gate pass."""

    measured: Dict[str, float]
    baseline: Dict[str, float]
    violations: List[Violation] = None
    updated_path: Optional[Path] = None

    def __post_init__(self):
        if self.violations is None:
            self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self, threshold: float = DEFAULT_THRESHOLD) -> str:
        lines = ["canonical modelled rates:"]
        for name in sorted(self.measured):
            base = self.baseline.get(name)
            suffix = ""
            if base:
                delta = (self.measured[name] / base - 1.0) * 100.0
                suffix = f"  (baseline {base / 1e3:.2f} kHz, " \
                         f"{delta:+.2f}%)"
            lines.append(f"  {name:>18}: "
                         f"{self.measured[name] / 1e3:.2f} kHz{suffix}")
        if self.updated_path is not None:
            lines.append(f"baseline updated: {self.updated_path}")
        elif not self.baseline:
            lines.append("no committed baseline "
                         f"({RATES_FILE}); rates reported only")
        if self.violations:
            lines.append("")
            lines.append(f"REGRESSIONS (threshold "
                         f"{threshold * 100.0:.0f}%):")
            for violation in self.violations:
                lines.append(f"  {violation.describe()}")
        else:
            lines.append("regression gate: OK")
        return "\n".join(lines)
