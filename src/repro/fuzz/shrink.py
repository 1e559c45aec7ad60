"""Scenario minimization: reduce a failing scenario to its smallest
still-failing form.

Greedy descent over :func:`~repro.fuzz.generator.shrink_candidates`:
each candidate drops a tile/lane, narrows a width, shortens the input
program, or simplifies structure; a candidate is accepted as the new
current scenario iff it still trips an oracle.  Candidates that fail to
*build* (an over-shrunk spec, an illegal boundary) are skipped, not
counted as reproductions.

The shrinker is deterministic: candidates are enumerated in a fixed
order and the first still-failing one wins each round, so the same
failure always minimizes to the same repro.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import FuzzFailure, ReproError
from . import generator
from .generator import Scenario

#: a checker runs the oracles on one scenario and raises FuzzFailure on
#: disagreement (e.g. ``lambda sc: run_oracles(scenario_config(sc))``)
Checker = Callable[[Scenario], object]


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    scenario: Scenario
    failure: FuzzFailure
    rounds: int = 0
    attempts: int = 0
    #: (fingerprint, num_partitions) trail, original first
    trail: List[str] = field(default_factory=list)


def probe(check: Checker, scenario: Scenario) -> Optional[FuzzFailure]:
    """Run ``check`` on ``scenario``; the failure it raises, or None.

    Non-fuzz library errors (the candidate cannot even build or run)
    also return None — an over-shrunk scenario that crashes outright is
    not a reproduction of the original disagreement.
    """
    try:
        check(scenario)
    except FuzzFailure as exc:
        return exc
    except ReproError:
        return None
    return None


def shrink(scenario: Scenario, check: Checker,
           failure: Optional[FuzzFailure] = None,
           max_attempts: int = 128) -> ShrinkResult:
    """Minimize ``scenario`` under ``check``.

    Args:
        scenario: the original failing scenario.
        check: oracle runner; must raise :class:`FuzzFailure` on the
            scenario for the result to be meaningful.
        failure: the original failure, if already in hand (saves one
            probe).
        max_attempts: total candidate evaluations across all rounds —
            each is a full oracle run, so this bounds shrink cost.
    """
    if failure is None:
        failure = probe(check, scenario)
        if failure is None:
            raise ReproError(
                "shrink() needs a failing scenario; the checker passed "
                f"on {scenario.fingerprint}")
    current, current_failure = scenario, failure
    trail = [f"{scenario.fingerprint}:{generator.num_partitions(scenario)}p"]
    rounds = attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        rounds += 1
        for candidate in generator.shrink_candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            exc = probe(check, candidate)
            if exc is not None:
                current, current_failure = candidate, exc
                trail.append(f"{candidate.fingerprint}:"
                             f"{generator.num_partitions(candidate)}p")
                improved = True
                break
    return ShrinkResult(scenario=current, failure=current_failure,
                        rounds=rounds, attempts=attempts, trail=trail)
