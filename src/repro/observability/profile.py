"""Profile rendering and ambient profile sessions.

``SimulationResult.detail`` always carries the per-partition FMR
breakdown (``fmr_breakdown``) and per-link stats (``links``) — the
harness accounts them as it prices each action, traced or not.  This
module turns those into reports:

* :func:`format_profile` — the ``repro profile`` CLI table: FMR
  breakdown per partition, link utilization, in-flight histograms, and
  the dominant bottleneck,
* :func:`dominant_component` — which non-compute FMR component costs
  the most host time across partitions,
* :class:`ProfileSession` / :func:`profile_session` — an ambient
  collector: while a session is active, every
  ``PartitionedSimulation.result()`` reports into it, so wrappers like
  ``python -m repro.experiments --profile`` can summarize where host
  time went inside experiments they did not build themselves.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from .fmr import FMR_COMPONENTS

#: the active ambient session, if any (single-threaded by design)
_ACTIVE: Optional["ProfileSession"] = None


class ProfileSession:
    """Collects every ``SimulationResult`` produced while active."""

    def __init__(self):
        self.results: List[object] = []

    def record(self, result) -> None:
        self.results.append(result)

    # -- aggregation ------------------------------------------------------

    def component_totals(self) -> Dict[str, float]:
        """Host-time-weighted FMR component totals across all recorded
        partitioned runs (host cycles, so partitions are comparable)."""
        return _component_totals(self.results)

    def summary(self) -> str:
        runs = len(self.results)
        if not runs:
            return "[profile] no partitioned runs observed"
        totals = self.component_totals()
        grand = sum(totals.values()) or 1.0
        parts = "  ".join(
            f"{name} {totals[name] / grand * 100.0:.1f}%"
            for name in FMR_COMPONENTS)
        name, _ = _dominant(totals)
        return (f"[profile] {runs} partitioned run(s); host time: "
                f"{parts}; bottleneck: {name}")


@contextmanager
def profile_session() -> Iterator[ProfileSession]:
    """Activate an ambient :class:`ProfileSession` for the block."""
    global _ACTIVE
    previous = _ACTIVE
    session = ProfileSession()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def record_result(result) -> None:
    """Report a finished run into the active session (no-op otherwise);
    called by ``PartitionedSimulation.result()``."""
    if _ACTIVE is not None:
        _ACTIVE.record(result)


def _component_totals(results) -> Dict[str, float]:
    totals = {name: 0.0 for name in FMR_COMPONENTS}
    for result in results:
        breakdown = result.detail.get("fmr_breakdown") or {}
        cycles = result.per_partition_cycles
        for part, components in breakdown.items():
            weight = cycles.get(part, result.target_cycles)
            for name in FMR_COMPONENTS:
                totals[name] += components.get(name, 0.0) * weight
    return totals


def _dominant(totals: Dict[str, float]) -> Tuple[str, float]:
    """Largest non-compute component (compute is the useful work)."""
    candidates = {name: value for name, value in totals.items()
                  if name != "compute"}
    name = max(candidates, key=candidates.get)
    return name, candidates[name]


def dominant_component(result) -> str:
    """Which overhead component dominates ``result`` across partitions."""
    totals = _component_totals([result])
    if not any(totals.values()):
        return "none"
    name, _ = _dominant(totals)
    return name


def format_profile(result) -> str:
    """Render the profile report for one ``SimulationResult``."""
    lines = [
        f"simulated {result.target_cycles} target cycles in "
        f"{result.wall_ns / 1e3:.1f} us of host time "
        f"({result.rate_hz / 1e3:.1f} kHz)",
        "",
        "FMR breakdown (host cycles per target cycle):",
        (f"{'partition':>12}{'FMR':>9}"
         + "".join(f"{name:>14}" for name in FMR_COMPONENTS)),
    ]
    fmr = result.detail.get("fmr", {})
    breakdown = result.detail.get("fmr_breakdown", {})
    for part in sorted(breakdown):
        components = breakdown[part]
        lines.append(
            f"{part:>12}{fmr.get(part, 0.0):>9.2f}"
            + "".join(f"{components.get(name, 0.0):>14.3f}"
                      for name in FMR_COMPONENTS))
    links = result.detail.get("links", {})
    if links:
        lines.append("")
        lines.append("links:")
        for key in sorted(links):
            stats = links[key]
            hist = stats.get("in_flight_hist", {})
            hist_text = " ".join(
                f"{depth}:{count}" for depth, count in sorted(hist.items()))
            lines.append(
                f"  {key}: {stats['tokens']} tokens, "
                f"{stats['utilization'] * 100.0:.1f}% occupied"
                + (f", depth histogram {{{hist_text}}}" if hist else ""))
    lines.append("")
    lines.append(f"bottleneck: {dominant_component(result)}")
    return "\n".join(lines)
