"""The asyncio simulation service: admission -> cache -> workers.

One event loop owns every piece of mutable state (jobs table,
admission queue, single-flight table, plan cache, counters); every
executed job runs ``execute_config`` in its own forked child
(:func:`~repro.parallel.pool.fork_call`), so concurrent cold jobs do
not share one interpreter lock and the loop stays responsive to
submissions, status queries and cancels while partitions grind.  The
child ships back the outcome (or its typed error); archiving, cache
fill, coalescing and follower promotion stay in the parent.  The flow
of one submission::

    submit(config)
      normalize + fingerprint ............ executor.normalize_config
      archived hit? ...................... complete from results/runs
      identical config in flight? ........ attach single-flight
      quota check + priority enqueue ..... admission.admit
    worker pops highest priority
      late cache check (a sibling service sharing the registry
      may have filled the key meanwhile)
      plan lookup ........................ executor.plan_key -> design
      fork the job child; on a plan hit it inherits the compiled
      design, on a miss it compiles one; it executes on the configured
      backend (a process or farm job forks its own workers from there)
      while the loop awaits its pipe
      archive = cache fill; complete leader + followers; a miss's
      design, pickled after its run, fills the plan cache

The plan cache holds up to :data:`PLAN_CACHE_SIZE` compiled designs by
:func:`~repro.service.executor.plan_key` — the circuit text, its
partitioning and its mode, not the run's cycles, backend, transport,
frequency or faults — each with its partitions' elaborations and fused
kernels inside.  A job child inherits its entry through the fork, so
a hit parses, partitions, elaborates and prints no kernel; only the
step plane is generated per run.  The result cache stays the only
result cache.

Cancellation: a queued job completes as ``cancelled`` immediately (its
heap entry is popped and skipped later); a running job's cancel sets
one anonymous shared byte mapped before the fork, which the harness
stop hook reads every wavefront pass, so the child stops within one
pass and reports its partial result.  A cancelled leader's followers
are requeued — the first becomes the new leader — so one tenant's
cancel never discards another tenant's accepted request.  A child
that dies fails only its own job (and, under the failed-leader rule,
its followers).
"""

from __future__ import annotations

import asyncio
import mmap
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import JobNotFoundError, ReproError
from ..observability.corr import mint_corr_id
from ..observability.events import (
    LogTracer,
    lifecycle_event,
    open_event_log,
)
from ..observability.tracer import RecordingTracer, TeeTracer
from ..parallel.pool import ForkedCall, fork_call
from ..telemetry import RunRegistry, Telemetry, config_fingerprint
from ..telemetry.metrics import MetricsRegistry, render_prometheus
from .admission import AdmissionController, TenantQuota
from .cache import ResultCache
from .executor import (compile_design, execute_config, normalize_config,
                       plan_key)
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

#: compiled designs the plan cache keeps, least recently used first
#: out (one is a few hundred kB)
PLAN_CACHE_SIZE = 8

#: log-spaced latency buckets in seconds (le= labels); +Inf implied
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10.0, 60.0)

#: the per-tenant latency histograms: submit -> worker pickup, the
#: fingerprint probe at submit, worker pickup -> terminal
PHASES = ("queue_wait", "cache_lookup", "execution")

#: per-tenant counter name -> rendered metric name
COUNTER_METRICS = {
    "submitted": "repro_service_jobs_submitted_total",
    "rejected": "repro_service_admission_rejected_total",
    "cache_hits": "repro_service_cache_hits_total",
    "coalesced": "repro_service_coalesced_total",
    "completed": "repro_service_jobs_completed_total",
    "failed": "repro_service_jobs_failed_total",
    "cancelled": "repro_service_jobs_cancelled_total",
    "executions": "repro_service_executions_total",
}

#: the service-wide totals ``/stats`` lists under ``counters``, in
#: that view's own order
TOTALS = ("submitted", "rejected", "executions", "cache_hits",
          "coalesced", "completed", "failed", "cancelled")

#: ``GET /metrics`` families of the service registry (see
#: ``render_prometheus``); the scrape-time gauges render ahead of them
METRIC_FAMILIES = (
    *((metric, "counter", {name: {}})
      for name, metric in COUNTER_METRICS.items()),
    ("repro_service_latency_seconds", "histogram",
     {phase: {"phase": phase} for phase in PHASES}),
)


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    #: concurrent simulation executions, each in its own forked child
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
    default_quota: TenantQuota = dataclass_field(
        default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = dataclass_field(
        default_factory=dict)


def _pickled(design) -> Optional[bytes]:
    """``design`` as bytes for the parent's plan cache, or None when it
    does not pickle — the job it ran succeeds either way."""
    try:
        return pickle.dumps(design, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError,
            RecursionError):
        return None


async def _readable(fd: int) -> None:
    """Wait, without blocking the loop, until ``fd`` is readable."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
    try:
        await ready
    finally:
        loop.remove_reader(fd)


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
        #: lifecycle-event sink: the JSONL log and its stderr twin
        #: (whichever are on; neither by default)
        self.events = TeeTracer([
            open_event_log(self.config.event_log),
            LogTracer("repro.service")])
        #: always-on host-observation registry, scoped by tenant:
        #: the :data:`COUNTER_METRICS` counters and one wall-clock
        #: latency histogram per phase.  Exported, never digested.
        self.metrics = MetricsRegistry()
        self._seq = 0
        #: running job id -> its child and the shared cancel byte the
        #: child's stop hook reads
        self._children: Dict[str, Tuple[ForkedCall, mmap.mmap]] = {}
        #: plan key -> compiled design, for job children to inherit
        self._plans: "OrderedDict[str, object]" = OrderedDict()
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
        # the event log reopens on the next emit, should one follow
        self.events.close()

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
        self._event("submitted", job, priority=job.priority)
        # 1. archived hit: serve from results/runs without queueing
        lookup_start = time.perf_counter()
        record = self.cache.lookup(fingerprint)
        job.cache_lookup_s = time.perf_counter() - lookup_start
        self._observe("cache_lookup", job, job.cache_lookup_s)
        if record is not None:
            self._register(job)
            self._complete_from_record(job, record, SOURCE_CACHE)
            return job
        # 2. identical config in flight: ride it single-flight
        if self.cache.flight.leader_for(fingerprint) is not None:
            self._register(job)
            self.cache.flight.attach(fingerprint, job)
            self._event("coalesced", job, count="coalesced")
            return job
        # 3. miss: quota-checked admission as the new leader
        try:
            self.admission.admit(job)
        except ReproError as exc:
            self._event("rejected", job, count="rejected",
                        error=str(exc))
            raise
        self._register(job)
        self.cache.flight.begin(fingerprint, job)
        self._event("admitted", job)
        self._event("queued", job, priority=job.priority)
        self._work.set()
        return job

    def _register(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self.metrics.counter("submitted", job.tenant).inc()
        self._idle.clear()

    # -- the two things a lifecycle point does ------------------------------

    def _event(self, kind: str, job: Job, count: str = "",
               **fields) -> None:
        """Bump the ``count`` counter (if any) and emit one ``kind``
        event under ``job``'s identity."""
        if count:
            self.metrics.counter(count, job.tenant).inc()
        if self.events.enabled:
            self.events.emit(lifecycle_event(
                kind, corr=job.corr_id, tenant=job.tenant,
                fingerprint=job.fingerprint, job=job.job_id,
                **fields))

    def _observe(self, phase: str, job: Job, seconds: float) -> None:
        self.metrics.histogram(phase, job.tenant,
                               LATENCY_BUCKETS).observe(seconds)

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

    @property
    def counters(self) -> Dict[str, int]:
        """Service-wide totals of the per-tenant counters — a
        read-only view of the registry."""
        totals = dict.fromkeys(TOTALS, 0)
        for (kind, name, _), inst in self.metrics.instruments():
            if kind == "counter":
                totals[name] += int(inst.value)
        return totals

    def stats(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": len(self._workers) or self.config.workers,
            "running": self._running,
            "runs_dir": str(self.registry.root),
            "jobs": {"total": len(self.jobs), **states},
            "counters": self.counters,
            "cache": self.cache.stats(),
            "admission": self.admission.snapshot(),
            "metrics": self._metrics_snapshot(),
        }

    def _metrics_snapshot(self) -> dict:
        """The registry by tenant, as ``/stats`` serves it and
        ``repro top`` renders it."""
        counters: Dict[str, Dict[str, int]] = {
            name: {} for name in COUNTER_METRICS}
        latency: Dict[str, Dict[str, dict]] = {}
        tenants = set()
        for (kind, name, tenant), inst in self.metrics.instruments():
            tenants.add(tenant)
            if kind == "counter":
                counters[name][tenant] = int(inst.value)
            else:
                latency.setdefault(name, {})[tenant] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "p50": inst.quantile(0.50),
                    "p95": inst.quantile(0.95),
                    "p99": inst.quantile(0.99),
                }
        return {"tenants": sorted(tenants), "counters": counters,
                "latency": latency, "gauges": self.gauges()}

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
        # gauges exist only for the scrape, so a tenant that drained
        # its queue drops out instead of reading a stale depth
        scrape = MetricsRegistry()
        gauges = self.gauges()
        for name, value in gauges.items():
            per_tenant = value if isinstance(value, dict) else {"": value}
            for tenant, reading in per_tenant.items():
                scrape.gauge(name, tenant).set(reading)
        families = [(f"repro_service_{name}", "gauge", {name: {}})
                    for name in gauges]
        return (render_prometheus(scrape, families, "tenant")
                + render_prometheus(self.metrics, METRIC_FAMILIES,
                                    "tenant"))

    # -- cancellation -----------------------------------------------------

    async def cancel(self, job_id: str) -> Job:
        """Request cancellation; idempotent, returns the job."""
        job = self.get(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        if job.job_id in self._children:
            self._children[job.job_id][1][0] = 1
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
        # RUNNING: the child's stop hook sees the byte within one pass
        # and the worker completes the cancellation
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
        self._observe("queue_wait", job, job.queue_wait_s)
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
        error: Optional[str] = None
        outcome = None
        try:
            outcome = await self._run_forked(job)
        except ReproError as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 — job, not service, fails
            error = f"{type(exc).__name__}: {exc}"
        job.execution_s = time.time() - job.started
        self._observe("execution", job, job.execution_s)
        entry = self.cache.flight.finish(fingerprint)
        followers = entry.followers if entry is not None else []
        if job.cancel_requested:
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

    async def _run_forked(self, job: Job):
        """``execute_config`` of ``job`` in a forked child: logged as
        ``executing`` with the child's ``child_pid`` and whether its
        ``plan`` was a hit, awaited on its pipe, and reaped before this
        returns or raises."""
        telemetry = self._telemetry_for(job)
        tracer = RecordingTracer(self.config.trace_events) \
            if self.config.trace_events > 0 else None
        key = plan_key(job.config)
        planned = self._plans.get(key) if key is not None else None
        if planned is not None:
            self._plans.move_to_end(key)
        #: this child compiles a design the plan cache wants
        fresh = key is not None and planned is None
        with mmap.mmap(-1, 1) as stop:
            def execute():
                design = compile_design(job.config) if fresh else planned
                outcome = execute_config(
                    job.config, telemetry, lambda: stop[0] != 0,
                    corr_id=job.corr_id, events=self.events,
                    tracer=tracer, design=design)
                # pickled after the run, so its memos are filled
                return outcome, _pickled(design) if fresh else None

            child = fork_call(
                execute, job.job_id,
                [other.conn for other, _ in self._children.values()])
            self._children[job.job_id] = (child, stop)
            try:
                self._event("executing", job, count="executions",
                            queue_wait_s=round(job.queue_wait_s, 6),
                            child_pid=child.proc.pid,
                            plan="miss" if planned is None else "hit")
                await _readable(child.conn.fileno())
                outcome, blob = child.result()
            finally:
                del self._children[job.job_id]
                child.close()
        if blob is not None and key not in self._plans:
            # a concurrent miss of the same plan may have filled it:
            # that blob is dropped unread.  Loading runs on the loop,
            # once per plan key (tens of ms).
            self._plans[key] = pickle.loads(blob)
            while len(self._plans) > PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
        return outcome

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
            self._event("cache_hit", job, count="cache_hits",
                        run_id=job.run_id or "")
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
        # a terminal state names its own event kind (and, but for
        # ``done``, its counter)
        self._event(state, job,
                    count="completed" if state == DONE else state,
                    source=job.source, run_id=job.run_id or "",
                    error=job.error)
        job.done_event.set()
        if all(j.terminal for j in self.jobs.values()):
            self._idle.set()
