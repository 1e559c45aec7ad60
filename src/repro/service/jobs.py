"""Job objects for the multi-tenant simulation service.

A :class:`Job` is one tenant request moving through the service's
lifecycle::

    queued --> running --> done
       |          |    \\-> failed
       \\----------+------> cancelled

plus the two shortcut completions that never occupy a worker:

* ``source == "cache"`` — the config's fingerprint matched an archived
  run; the job completed at submit time from ``results/runs/``,
* ``source == "coalesced"`` — an identical config was already queued or
  running; the job rode the in-flight leader's execution single-flight
  and completed (or failed) with it.

Jobs are in-memory objects; their durable output is the archived run
record in the :class:`~repro.telemetry.runs.RunRegistry`, referenced by
``run_id``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states from which a job never moves again
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: how a terminal result was produced
SOURCE_EXECUTION = "execution"
SOURCE_CACHE = "cache"
SOURCE_COALESCED = "coalesced"


def result_summary(record: dict) -> dict:
    """The headline numbers of one archived run record — what job
    queries and ``repro submit --wait`` report (the full record stays
    in the registry under ``run_id``)."""
    return {
        "run_id": record.get("run_id"),
        "target_cycles": record.get("target_cycles", 0),
        "wall_ns": record.get("wall_ns", 0.0),
        "rate_hz": record.get("rate_hz", 0.0),
        "tokens_transferred": record.get("tokens_transferred", 0),
        "backend": record.get("backend", ""),
    }


@dataclass
class Job:
    """One admitted (or shortcut-completed) service request."""

    job_id: str
    tenant: str
    config: dict
    fingerprint: str
    priority: int = 0
    name: str = ""
    state: str = QUEUED
    source: str = ""
    run_id: Optional[str] = None
    error: str = ""
    live_path: Optional[str] = None
    #: request-scoped correlation id, minted at submit and propagated
    #: into every worker subprocess the job touches
    corr_id: str = ""
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: phase latencies (seconds), filled as the job crosses each phase
    cache_lookup_s: Optional[float] = None
    queue_wait_s: Optional[float] = None
    execution_s: Optional[float] = None
    #: headline result numbers (see :func:`result_summary`); partial
    #: for cancelled jobs, None until terminal
    result: Optional[dict] = None
    #: True when the job went through admission (and must be released)
    admitted: bool = False
    cancel_requested: bool = False

    # -- coordination (not serialized) ------------------------------------
    #: set exactly once when the job reaches a terminal state
    done_event: asyncio.Event = field(default_factory=asyncio.Event,
                                      repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def record(self) -> dict:
        """JSON-able view of the job — what the HTTP endpoint serves
        and ``repro jobs`` lists."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "name": self.name,
            "state": self.state,
            "source": self.source,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "run_id": self.run_id,
            "error": self.error,
            "live_path": self.live_path,
            "corr_id": self.corr_id,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "cache_lookup_s": self.cache_lookup_s,
            "queue_wait_s": self.queue_wait_s,
            "execution_s": self.execution_s,
            "cancel_requested": self.cancel_requested,
            "result": self.result,
        }
