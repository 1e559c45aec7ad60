"""The modelled-rate gate behind ``repro regress``.

The timing overlay prices every host action in *modelled* time, so the
rate of a fixed configuration is deterministic and the gate is exact:
the canonical rates must ``==`` the committed ``BENCH_rates.json``,
names included, until ``repro regress --update`` re-baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

RATES_FILE = "BENCH_rates.json"
RATES_FORMAT = "fireaxe-repro-canonical-rates"

#: name -> (mode, transport) of a 200-cycle run of the comb pair with
#: ``right`` on its own FPGA
CANONICAL = {"pair_exact_qsfp": ("exact", "qsfp"),
             "pair_fast_qsfp": ("fast", "qsfp"),
             "pair_exact_pcie": ("exact", "pcie")}


def measure_canonical() -> Dict[str, float]:
    """Every canonical configuration's modelled rate in Hz."""
    # imported lazily: the compiler stack imports the harness, which
    # imports this package — a module-level import would be circular
    from ..fireripper import FireRipper, PartitionGroup, PartitionSpec
    from ..platform import PCIE_P2P, QSFP_AURORA
    from ..targets import make_comb_pair_circuit

    transports = {"qsfp": QSFP_AURORA, "pcie": PCIE_P2P}
    rates = {}
    for name, (mode, transport) in CANONICAL.items():
        spec = PartitionSpec(mode=mode, groups=[
            PartitionGroup.make("fpga1", ["right"])])
        sim = FireRipper(spec).compile(make_comb_pair_circuit()) \
            .build_simulation(transports[transport])
        rates[name] = sim.run(200, backend="inproc").rate_hz
    return rates


class Violation(NamedTuple):
    """A rate off its baseline (``None``: that side lacks the name)."""

    metric: str
    baseline: Optional[float]
    measured: Optional[float]


def save_baseline(rates: Dict[str, float],
                  results_dir: Union[str, Path]) -> Path:
    path = Path(results_dir) / RATES_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format": RATES_FORMAT,
                                "rates_hz": dict(sorted(rates.items()))},
                               indent=2) + "\n")
    return path


def load_baseline(results_dir: Union[str, Path]
                  ) -> Optional[Dict[str, float]]:
    """The committed rates, or None when there is no baseline file."""
    try:
        payload = json.loads((Path(results_dir) / RATES_FILE).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload.get("rates_hz", {}) \
        if payload.get("format") == RATES_FORMAT else None


def check_rates(measured: Dict[str, float],
                baseline: Dict[str, float]) -> List[Violation]:
    """Every name on either side whose two values are not ``==``."""
    return [Violation(name, baseline.get(name), measured.get(name))
            for name in sorted(set(measured) | set(baseline))
            if measured.get(name) != baseline.get(name)]


@dataclass
class GateReport:
    """Outcome of one ``repro regress`` pass; ``note`` says why nothing
    was compared, when nothing was."""

    measured: Dict[str, float]
    violations: List[Violation]
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = ["canonical modelled rates:"] + [
            f"  {name:>18}: {rate / 1e3:.2f} kHz"
            for name, rate in sorted(self.measured.items())]
        lines += [self.note] if self.note else []
        if self.ok:
            return "\n".join(lines + ["regression gate: OK"])
        lines.append(f"\nREGRESSIONS against {RATES_FILE} (exact):")
        lines.extend(f"  {v.metric}: baseline {v.baseline!r}, "
                     f"measured {v.measured!r}" for v in self.violations)
        return "\n".join(lines)


def run_gate(results_dir: Union[str, Path] = "results",
             update: bool = False) -> GateReport:
    """Measure, then re-baseline (``update``) or compare."""
    measured = measure_canonical()
    if update:
        path = save_baseline(measured, results_dir)
        return GateReport(measured, [], f"baseline updated: {path}")
    baseline = load_baseline(results_dir)
    if not baseline:
        return GateReport(measured, [], f"no committed baseline "
                          f"({RATES_FILE}); rates reported only")
    return GateReport(measured, check_rates(measured, baseline))
