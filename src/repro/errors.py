"""Exception hierarchy for the FireAxe reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors.  The compiler-facing errors carry enough structure for tools to
render actionable diagnostics (e.g. the combinational port chain that made a
partition boundary illegal, mirroring FireRipper's user feedback).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence


class ReproError(Exception):
    """Base class for all library errors."""


class EnvSettingError(ReproError):
    """Environment variable ``variable`` holds a ``value`` its setting
    cannot take (``REPRO_HEARTBEAT_TIMEOUT=soon``)."""

    def __init__(self, variable: str, value: str, expected: str):
        self.variable = variable
        self.value = value
        super().__init__(f"{variable}={value!r}: expected {expected}")


def env_number(variable: str, default, cast=float):
    """The ``float`` (or ``cast=int``) environment variable
    ``variable`` holds, ``default`` when unset or empty; anything else
    raises :class:`EnvSettingError`."""
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise EnvSettingError(
            variable, raw,
            "an integer" if cast is int else "a number") from None


class IRError(ReproError):
    """Malformed IR: unknown references, duplicate names, bad widths."""


class ElaborationError(ReproError):
    """The circuit could not be flattened into a netlist."""


class CombLoopError(ElaborationError):
    """A combinational cycle was found during elaboration.

    Attributes:
        cycle: flattened signal names forming the loop, in order.
    """

    def __init__(self, cycle: Sequence[str]):
        self.cycle = list(cycle)
        super().__init__(
            "combinational loop: " + " -> ".join(self.cycle + self.cycle[:1])
        )


class SimulationError(ReproError):
    """A runtime failure inside one of the simulation engines."""


class DeadlockError(SimulationError):
    """Token exchange between LI-BDNs can make no further progress.

    This is the failure mode of Fig. 2a in the paper: aggregating all I/O
    into a single channel pair across a combinational boundary produces a
    circular token dependency.

    Attributes:
        host_cycle: host time at which progress stopped.
        detail: human-readable description of the stuck channels.
        postmortem: structured
            :class:`~repro.observability.postmortem.DeadlockPostmortem`
            (full per-unit channel state plus the trailing trace-event
            ring) when raised by the partitioned harness.
    """

    def __init__(self, detail: str, host_cycle: Optional[int] = None,
                 postmortem: Optional[object] = None):
        self.host_cycle = host_cycle
        self.detail = detail
        self.postmortem = postmortem
        msg = f"LI-BDN deadlock: {detail}"
        if host_cycle is not None:
            msg += f" (host cycle {host_cycle})"
        super().__init__(msg)


class WorkerError(SimulationError):
    """A distributed-backend worker process failed (died, hung, or
    raised) and the run could not complete.

    Raised by the process backend's coordinator after it has terminated
    and reaped every remaining child, so a worker failure never leaves
    orphaned processes or a hung parent.

    Attributes:
        partition: name of the partition whose worker failed first
            (secondary casualties — workers that exited because a peer
            vanished — are not blamed).
        reason: short machine-readable cause (``died``, ``raised``,
            ``heartbeat-timeout``, ...).
    """

    def __init__(self, partition: str, reason: str, message: str):
        self.partition = partition
        self.reason = reason
        super().__init__(
            f"worker {partition!r} {reason}: {message}")


def error_report(exc: BaseException, message: Optional[str] = None):
    """What a forked child ships of ``exc`` for :func:`rebuild_error`
    (``args`` of library errors only: others' may not pickle)."""
    return (type(exc).__name__, str(exc) if message is None else message,
            exc.args if isinstance(exc, ReproError) else ())


def rebuild_error(label: str, exc_type: str, message: str,
                  args: tuple = ()):
    """Rebuild an exception a forked child reported by class name: the
    :class:`ReproError` subclass ``exc_type`` names, when the bare
    message or else the child's ``exc.args`` construct one, else a
    :class:`WorkerError` blaming ``label`` (the partition or task the
    child ran)."""
    exc_cls = globals().get(exc_type)
    if isinstance(exc_cls, type) and issubclass(exc_cls, ReproError):
        for ctor_args in ((message,), args):
            try:
                return exc_cls(*ctor_args)
            except TypeError:
                pass
    return WorkerError(label, "raised", f"{exc_type}: {message}")


class BackendUnavailableError(SimulationError):
    """The requested execution backend cannot run on this host (e.g.
    the process backend on a platform without ``fork``)."""


class UnknownBackendError(SimulationError):
    """``backend=`` / ``REPRO_BACKEND`` named no known execution
    backend.  Raised at dispatch time (not deep inside a coordinator)
    so the message can list every valid name.

    Attributes:
        name: the unrecognized backend string.
        valid: the accepted backend names.
        source: where the bad name came from (``backend`` for the
            ``run`` argument, ``REPRO_BACKEND`` for the environment).
    """

    def __init__(self, name, valid: Sequence[str] = (),
                 source: str = "backend"):
        self.name = name
        self.valid = tuple(valid)
        msg = f"unknown {source} {name!r}"
        if self.valid:
            msg += f"; valid backends: {', '.join(self.valid)}"
        super().__init__(msg)


class HostDeadError(WorkerError):
    """A farm virtual host was lost: the manager pulled it by
    SIGKILLing every partition worker placed on it, and one of them
    died with its work outstanding.

    Raised by the farm manager's supervision loop, which then aborts
    and reaps every remaining worker, so (like :class:`WorkerError`)
    the supervisor's ordinary rollback/re-place path applies.

    Attributes:
        host: name of the lost host.
    """

    def __init__(self, host: str, reason: str, message: str,
                 partition: str = ""):
        self.host = host
        super().__init__(partition or f"host:{host}", reason, message)


class UnsupportedTopologyError(SimulationError):
    """The simulation's structure cannot be distributed (e.g. a switch
    fabric shared by links of different source partitions)."""


class CompileError(ReproError):
    """FireRipper rejected the partition specification."""


class CombChainError(CompileError):
    """The combinational dependency chain across the boundary exceeds 2.

    FireRipper terminates compilation in this case and reports the chain of
    combinational ports so the user can move the partition point.

    Attributes:
        chain: the offending alternating output/input port chain.
    """

    def __init__(self, chain: Sequence[str]):
        self.chain = list(chain)
        super().__init__(
            "combinational dependency chain longer than 2 across the "
            "partition boundary: " + " -> ".join(self.chain)
        )


class SelectionError(CompileError):
    """The module-selection spec named instances that do not exist or
    cannot be grouped (e.g. non-adjacent NoC router indices)."""


class ResourceError(ReproError):
    """A partition does not fit the FPGA it was mapped to."""

    def __init__(self, message: str, utilization: Optional[dict] = None):
        self.utilization = dict(utilization or {})
        super().__init__(message)


class TransportError(ReproError):
    """Misconfigured FPGA-to-FPGA transport (topology, link count)."""


class SocketSetupError(TransportError):
    """The process backend could not make its data plane: a
    ``socket.socketpair()`` call failed (e.g. the process ran out of
    file descriptors).  The pairs already made are closed first."""


class FarmError(ReproError):
    """A malformed or unusable farm host specification."""


class PlacementError(SimulationError):
    """No partition-to-host placement satisfies the farm constraints
    (host core capacity, co-location groups) — e.g. after host deaths
    left too little capacity to re-place the design."""


class CheckpointError(ReproError):
    """A partitioned-run checkpoint could not be taken or restored.

    Raised for unreadable or version-incompatible checkpoint files and
    for restores into a simulation whose topology (partitions, units,
    channels, links) does not match the one that was checkpointed.
    """


class FuzzFailure(SimulationError):
    """A differential-fuzz oracle found a scenario where the backends
    (or modes, or a checkpoint round-trip, or a fault-hardened run)
    disagree.

    Carries the normalized job config the oracle ran, so the failure is
    replayable: a campaign writes it into a repro file that ``repro fuzz
    replay`` re-runs through the same oracle, and the service takes it
    as a job as is.

    Attributes:
        oracle: which oracle tripped (``identity``, ``fastmode``,
            ``checkpoint``, ``faults``).
        backend: the backend whose result diverged from the in-process
            reference (empty for single-backend oracles).
        config: the normalized job config that disagreed.
    """

    def __init__(self, oracle: str, backend: str, message: str,
                 config: Optional[dict] = None):
        self.oracle = oracle
        self.backend = backend
        self.config = dict(config or {})
        where = f" on backend {backend!r}" if backend else ""
        super().__init__(f"fuzz oracle {oracle!r} failed{where}: {message}")


class ServiceError(ReproError):
    """A malformed or unserviceable simulation-service request (bad
    job config, unknown job kind, an experiment that produced nothing
    to archive, ...)."""


class QuotaExceededError(ServiceError):
    """A tenant's submission exceeded its admission quota.

    Raised at submit time, before the job enters the queue, so the
    rejected request costs the service nothing.  Cache hits and
    coalesced (single-flight) submissions are not counted against the
    quota — only jobs that would occupy queue or worker capacity.

    Attributes:
        tenant: the submitting tenant.
        kind: which limit tripped (``queued`` or ``active``).
        limit: the configured ceiling.
        current: the tenant's count at rejection time.
    """

    def __init__(self, tenant: str, kind: str, limit: int,
                 current: int):
        self.tenant = tenant
        self.kind = kind
        self.limit = limit
        self.current = current
        super().__init__(
            f"tenant {tenant!r} exceeded its {kind} quota "
            f"({current} >= {limit})")


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in this service.

    Attributes:
        job_id: the unknown id.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"no such job: {job_id!r}")


class LinkGiveUpError(TransportError):
    """A reliable link exhausted its retry budget for one token.

    Attributes:
        link: the link's identity string.
        seq: sequence number of the undeliverable token.
        attempts: how many transmission attempts were made.
    """

    def __init__(self, link: str, seq: int, attempts: int):
        self.link = link
        self.seq = seq
        self.attempts = attempts
        # ``args`` stay the constructor's, so the error survives a
        # pickle and a worker's report (``rebuild_error``)
        super().__init__(link, seq, attempts)

    def __str__(self) -> str:
        return (f"link {self.link}: token seq={self.seq} undeliverable "
                f"after {self.attempts} attempts")
