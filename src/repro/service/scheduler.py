"""The asyncio simulation service: admission -> cache -> workers.

One event loop owns every piece of mutable state (jobs table,
admission queue, single-flight table, counters); simulations run in
worker threads via ``asyncio.to_thread`` so the loop stays responsive
to submissions, status queries and cancels while partitions grind.
The flow of one submission::

    submit(config)
      normalize + fingerprint ............ executor.normalize_config
      archived hit? ...................... complete from results/runs
      identical config in flight? ........ attach single-flight
      quota check + priority enqueue ..... admission.admit
    worker pops highest priority
      late cache check (a sibling service sharing the registry
      may have filled the key meanwhile)
      execute on the configured backend; the job's cancel event is
      polled by the harness stop hook every wavefront pass
      archive = cache fill; complete leader + followers

Cancellation: a queued job completes as ``cancelled`` immediately (its
heap entry is popped and skipped later); a running job's cancel event
stops the simulation within one pass.  A cancelled leader's followers
are requeued — the first becomes the new leader — so one tenant's
cancel never discards another tenant's accepted request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import JobNotFoundError, ReproError
from ..observability.tracer import RecordingTracer
from ..obsplane import (
    EV_ADMITTED,
    EV_CACHE_HIT,
    EV_CANCELLED,
    EV_COALESCED,
    EV_DONE,
    EV_EXECUTING,
    EV_FAILED,
    EV_QUEUED,
    EV_REJECTED,
    EV_SUBMITTED,
    NULL_SERVICE_METRICS,
    ServiceMetrics,
    get_logger,
    log_record,
    mint_corr_id,
    open_event_log,
)
from ..telemetry import RunRegistry, Telemetry, config_fingerprint
from .admission import AdmissionController, TenantQuota
from .cache import ResultCache
from .executor import execute_config, normalize_config
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SOURCE_CACHE,
    SOURCE_COALESCED,
    SOURCE_EXECUTION,
    Job,
    result_summary,
)


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    #: concurrent simulation executions
    workers: int = 2
    #: the registry directory that is both archive and cache
    runs_dir: Union[str, Path] = "results/runs"
    #: when set, each executed job keeps a live-status file here
    #: (``repro watch --job`` follows it)
    live_dir: Optional[Union[str, Path]] = None
    #: telemetry sample interval for executed jobs (0: none unless
    #: live_dir is set, which implies 50)
    metrics_every: int = 0
    #: when set, lifecycle events append to this JSONL file
    #: (``repro tail`` follows it); None keeps the null sink
    event_log: Optional[Union[str, Path]] = None
    #: per-job trace capture ring for stitched traces
    #: (``repro trace --job``); 0 attaches no tracer
    trace_events: int = 0
    #: wall-clock service metrics (/metrics, repro top); a few dict
    #: ops per job event — False swaps in the null surface
    service_metrics: bool = True
    default_quota: TenantQuota = dataclass_field(
        default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = dataclass_field(
        default_factory=dict)


class SimulationService:
    """The job service; every public coroutine runs on its loop."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 registry: Optional[RunRegistry] = None):
        self.config = config or ServiceConfig()
        self.registry = registry or RunRegistry(self.config.runs_dir)
        self.cache = ResultCache(self.registry)
        self.admission = AdmissionController(
            default_quota=self.config.default_quota,
            quotas=self.config.quotas)
        self.jobs: Dict[str, Job] = {}
        #: job ids in the order workers dispatched them — the priority
        #: ordering proof the tests pin
        self.execution_log: List[str] = []
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "executions": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        self.events = open_event_log(self.config.event_log)
        self.metrics = ServiceMetrics() \
            if self.config.service_metrics else NULL_SERVICE_METRICS
        self._log = get_logger("repro.service")
        self._seq = 0
        self._running = False
        self._workers: List[asyncio.Task] = []
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker pool (jobs may be submitted before this —
        they queue up and run once workers exist)."""
        if self._running:
            return
        self._running = True
        self._workers = [
            asyncio.create_task(self._worker(), name=f"svc-worker-{i}")
            for i in range(max(1, self.config.workers))]
        self._work.set()

    async def shutdown(self) -> None:
        """Stop the workers after their current jobs finish; queued
        jobs stay queued (a restarted service would pick them up via
        resubmission)."""
        self._running = False
        self._work.set()
        if self._workers:
            await asyncio.gather(*self._workers,
                                 return_exceptions=True)
        self._workers = []

    async def drain(self) -> None:
        """Wait until every submitted job is terminal."""
        await self._idle.wait()

    # -- submission -------------------------------------------------------

    async def submit(self, config: dict, tenant: str = "default",
                     priority: int = 0, name: str = "") -> Job:
        """Admit one request; returns the job (possibly already
        terminal — a cache hit completes here).  Raises
        :class:`~repro.errors.QuotaExceededError`,
        :class:`~repro.errors.ServiceError` or
        :class:`~repro.errors.UnknownBackendError` without creating a
        job."""
        normalized = normalize_config(config)
        fingerprint = config_fingerprint(normalized)
        self._seq += 1
        job = Job(job_id=f"job-{self._seq:06d}", tenant=tenant,
                  config=normalized, fingerprint=fingerprint,
                  priority=int(priority), name=name,
                  corr_id=mint_corr_id())
        if self.events.enabled:
            self.events.emit(EV_SUBMITTED, corr=job.corr_id,
                             tenant=tenant, fingerprint=fingerprint,
                             job=job.job_id, priority=job.priority)
        # 1. archived hit: serve from results/runs without queueing
        lookup_start = time.perf_counter()
        record = self.cache.lookup(fingerprint)
        job.cache_lookup_s = time.perf_counter() - lookup_start
        self.metrics.observe("cache_lookup", tenant,
                             job.cache_lookup_s)
        if record is not None:
            self._register(job)
            self._complete_from_record(job, record, SOURCE_CACHE)
            return job
        # 2. identical config in flight: ride it single-flight
        if self.cache.flight.leader_for(fingerprint) is not None:
            self._register(job)
            self.cache.flight.attach(fingerprint, job)
            self.counters["coalesced"] += 1
            self.metrics.inc("coalesced", tenant)
            if self.events.enabled:
                self.events.emit(EV_COALESCED, corr=job.corr_id,
                                 tenant=tenant,
                                 fingerprint=fingerprint,
                                 job=job.job_id)
            return job
        # 3. miss: quota-checked admission as the new leader
        try:
            self.admission.admit(job)
        except ReproError as exc:
            self.counters["rejected"] += 1
            self.metrics.inc("rejected", tenant)
            if self.events.enabled:
                self.events.emit(EV_REJECTED, corr=job.corr_id,
                                 tenant=tenant,
                                 fingerprint=fingerprint,
                                 job=job.job_id, error=str(exc))
            log_record(self._log, EV_REJECTED, corr=job.corr_id,
                       tenant=tenant, error=str(exc))
            raise
        self._register(job)
        self.cache.flight.begin(fingerprint, job)
        if self.events.enabled:
            self.events.emit(EV_ADMITTED, corr=job.corr_id,
                             tenant=tenant, fingerprint=fingerprint,
                             job=job.job_id)
            self.events.emit(EV_QUEUED, corr=job.corr_id,
                             tenant=tenant, fingerprint=fingerprint,
                             job=job.job_id,
                             priority=job.priority)
        self._work.set()
        return job

    def _register(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self.counters["submitted"] += 1
        self.metrics.inc("submitted", job.tenant)
        self._idle.clear()

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(job_id)

    def list_jobs(self, tenant: Optional[str] = None) -> List[dict]:
        return [job.record() for job in self.jobs.values()
                if tenant is None or job.tenant == tenant]

    async def wait(self, job_id: str,
                   timeout: Optional[float] = None) -> dict:
        """Block until the job is terminal (or the timeout lapses —
        then ``asyncio.TimeoutError``); returns the job record."""
        job = self.get(job_id)
        if timeout is None:
            await job.done_event.wait()
        else:
            await asyncio.wait_for(job.done_event.wait(), timeout)
        return job.record()

    def stats(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": len(self._workers) or self.config.workers,
            "running": self._running,
            "runs_dir": str(self.registry.root),
            "jobs": {"total": len(self.jobs), **states},
            "counters": dict(self.counters),
            "cache": self.cache.stats(),
            "admission": self.admission.snapshot(),
            "metrics": self.metrics.snapshot(self.gauges()),
        }

    def gauges(self) -> dict:
        """Scrape-time gauge values (queue depth per tenant, active
        jobs, worker count) — read from the admission controller, never
        maintained on the job hot path."""
        snap = self.admission.snapshot()
        return {
            "queue_depth": {
                tenant: entry.get("queued", 0)
                for tenant, entry in snap.get("tenants", {}).items()},
            "active_jobs": snap.get("active", 0),
            "workers": len(self._workers) or self.config.workers,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition ``GET /metrics`` serves."""
        return self.metrics.render(self.gauges())

    # -- cancellation -----------------------------------------------------

    async def cancel(self, job_id: str) -> Job:
        """Request cancellation; idempotent, returns the job."""
        job = self.get(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        job.cancel_event.set()
        if job.state == QUEUED:
            # queued leaders hand their followers to a new leader;
            # queued followers just detach from their entry
            entry = self.cache.flight.leader_for(job.fingerprint)
            if entry is not None and entry.leader is job:
                self.cache.flight.finish(job.fingerprint)
                self._promote_followers(job.fingerprint,
                                        entry.followers)
            elif entry is not None and job in entry.followers:
                entry.followers.remove(job)
            self._finish(job, CANCELLED)
        # RUNNING: the stop hook sees the event within one pass and
        # the worker completes the cancellation
        return job

    def _promote_followers(self, fingerprint: str,
                           followers: List[Job]) -> None:
        live = [f for f in followers if not f.terminal]
        if not live:
            return
        leader, rest = live[0], live[1:]
        entry = self.cache.flight.begin(fingerprint, leader)
        entry.followers.extend(rest)
        self.admission.requeue(leader)
        self._work.set()

    # -- the worker loop --------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = self.admission.pop()
            if job is None:
                if not self._running:
                    return
                self._work.clear()
                if self.admission.queued_total:
                    continue
                if not self._running:
                    return
                await self._work.wait()
                continue
            if job.terminal:
                # cancelled while queued; slot already released
                continue
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        fingerprint = job.fingerprint
        job.queue_wait_s = max(time.time() - job.submitted, 0.0)
        self.metrics.observe("queue_wait", job.tenant,
                             job.queue_wait_s)
        # late hit: another service sharing this registry (or an
        # earlier leader of a different name) may have archived the
        # key between submit and dispatch
        record = self.registry.latest(fingerprint)
        if record is not None:
            entry = self.cache.flight.finish(fingerprint)
            self._complete_from_record(job, record, SOURCE_CACHE)
            if entry is not None:
                for follower in entry.followers:
                    if not follower.terminal:
                        self._complete_from_record(
                            follower, record, SOURCE_CACHE)
            return
        job.state = RUNNING
        job.started = time.time()
        self.execution_log.append(job.job_id)
        self.counters["executions"] += 1
        self.metrics.inc("executions", job.tenant)
        if self.events.enabled:
            self.events.emit(
                EV_EXECUTING, corr=job.corr_id, tenant=job.tenant,
                fingerprint=fingerprint, job=job.job_id,
                queue_wait_s=round(job.queue_wait_s, 6))
        log_record(self._log, EV_EXECUTING, corr=job.corr_id,
                   job=job.job_id, tenant=job.tenant)
        telemetry = self._telemetry_for(job)
        tracer = RecordingTracer(self.config.trace_events) \
            if self.config.trace_events > 0 else None
        error: Optional[str] = None
        outcome = None
        try:
            outcome = await asyncio.to_thread(
                execute_config, job.config, telemetry,
                job.cancel_event.is_set, corr_id=job.corr_id,
                events=self.events, tracer=tracer)
        except ReproError as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 — job, not service, fails
            error = f"{type(exc).__name__}: {exc}"
        job.execution_s = time.time() - job.started
        self.metrics.observe("execution", job.tenant,
                             job.execution_s)
        entry = self.cache.flight.finish(fingerprint)
        followers = entry.followers if entry is not None else []
        if job.cancel_event.is_set():
            if outcome is not None:
                job.result = {
                    "target_cycles": outcome.result.target_cycles,
                    "partial": True,
                }
            self._finish(job, CANCELLED)
            self._promote_followers(fingerprint, followers)
            return
        if error is not None:
            job.error = error
            self._finish(job, FAILED)
            for follower in followers:
                if not follower.terminal:
                    follower.error = (f"coalesced onto {job.job_id} "
                                      f"which failed: {error}")
                    self._finish(follower, FAILED,
                                 source=SOURCE_COALESCED)
            return
        record = self.cache.store(outcome.result, job,
                                  backend=outcome.backend,
                                  extra=outcome.extra)
        self._complete_from_record(job, record, SOURCE_EXECUTION)
        for follower in followers:
            if not follower.terminal:
                self._complete_from_record(follower, record,
                                           SOURCE_COALESCED)

    def _telemetry_for(self, job: Job) -> Optional[Telemetry]:
        live_dir = self.config.live_dir
        every = self.config.metrics_every
        if live_dir is None and every <= 0:
            return None
        live_path = None
        if live_dir is not None:
            live_path = Path(live_dir) / f"{job.job_id}.json"
            job.live_path = str(live_path)
        return Telemetry(
            sample_every=every if every > 0 else 50,
            live_path=live_path,
            annotations={"job": job.job_id, "tenant": job.tenant,
                         "fingerprint": job.fingerprint,
                         "corr_id": job.corr_id})

    # -- completion -------------------------------------------------------

    def _complete_from_record(self, job: Job, record: dict,
                              source: str) -> None:
        job.run_id = record.get("run_id")
        job.result = result_summary(record)
        job.source = source
        if source == SOURCE_CACHE:
            self.counters["cache_hits"] += 1
            self.metrics.inc("cache_hits", job.tenant)
            if self.events.enabled:
                self.events.emit(
                    EV_CACHE_HIT, corr=job.corr_id,
                    tenant=job.tenant, fingerprint=job.fingerprint,
                    job=job.job_id, run_id=job.run_id or "")
        self._finish(job, DONE, source=source)

    def _finish(self, job: Job, state: str,
                source: Optional[str] = None) -> None:
        if job.terminal:
            return
        job.state = state
        if source is not None:
            job.source = source
        job.finished = time.time()
        if job.admitted:
            self.admission.release(job)
        if state == DONE:
            self.counters["completed"] += 1
            self.metrics.inc("completed", job.tenant)
        elif state == FAILED:
            self.counters["failed"] += 1
            self.metrics.inc("failed", job.tenant)
        elif state == CANCELLED:
            self.counters["cancelled"] += 1
            self.metrics.inc("cancelled", job.tenant)
        kind = {DONE: EV_DONE, FAILED: EV_FAILED,
                CANCELLED: EV_CANCELLED}.get(state, EV_DONE)
        if self.events.enabled:
            self.events.emit(kind, corr=job.corr_id,
                             tenant=job.tenant,
                             fingerprint=job.fingerprint,
                             job=job.job_id, source=job.source,
                             run_id=job.run_id or "",
                             error=job.error)
        log_record(self._log, kind, corr=job.corr_id,
                   job=job.job_id, source=job.source,
                   error=job.error)
        job.done_event.set()
        if all(j.terminal for j in self.jobs.values()):
            self._idle.set()
