"""JSON-over-HTTP endpoint for the simulation service.

Hand-rolled on ``asyncio.start_server`` (no ``http.server``): requests
are one-shot HTTP/1.1 exchanges with JSON bodies and
``Connection: close`` semantics — the simplest protocol a curl, the
bundled :class:`~repro.service.client.ServiceClient`, or a load
balancer health check can speak.  Routes::

    GET  /healthz                 liveness + job counts
    GET  /metrics                 Prometheus text exposition
    GET  /stats                   counters, cache, admission snapshot
    POST /jobs                    submit {tenant, config, priority, name}
    GET  /jobs[?tenant=T]         list job records
    GET  /jobs/<id>               one job record
    GET  /jobs/<id>/wait?timeout=S   long-poll until terminal
    POST /jobs/<id>/cancel        request cancellation

Typed library errors map onto status codes (429 quota, 404 unknown
job, 400 bad request); the error payload carries the exception type
and its structured attributes so the client can re-raise the same
typed error on its side.

:class:`ServiceThread` runs a service + endpoint on a background
thread with a blocking facade — what ``repro serve`` builds in the
foreground, and what tests and the service benchmark drive.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    JobNotFoundError,
    QuotaExceededError,
    ReproError,
    ServiceError,
)
from ..observability.events import LogTracer
from ..observability.tracer import TraceEvent
from .scheduler import ServiceConfig, SimulationService

MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 408: "Request Timeout",
                429: "Too Many Requests", 500: "Internal Server Error"}


def _error_payload(exc: Exception) -> Tuple[int, dict]:
    payload = {"error": str(exc), "type": type(exc).__name__}
    if isinstance(exc, QuotaExceededError):
        payload.update(tenant=exc.tenant, kind=exc.kind,
                       limit=exc.limit, current=exc.current)
        return 429, payload
    if isinstance(exc, JobNotFoundError):
        payload.update(job_id=exc.job_id)
        return 404, payload
    if isinstance(exc, ReproError):
        return 400, payload
    return 500, payload


class ServiceServer:
    """The asyncio endpoint in front of one
    :class:`SimulationService`."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._log = LogTracer("repro.service.http")

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one exchange -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, body = \
                    await self._read_request(reader)
            except (asyncio.IncompleteReadError, ValueError,
                    ServiceError) as exc:
                await self._respond(writer, 400,
                                    {"error": f"bad request: {exc}",
                                     "type": "ServiceError"})
                return
            try:
                status, payload = await self._route(
                    method, path, query, body)
            except Exception as exc:  # noqa: BLE001 — mapped to status
                status, payload = _error_payload(exc)
            await self._respond(writer, status, payload)
            if self._log.enabled:
                self._log.emit(TraceEvent(
                    "http", time.monotonic_ns(),
                    args={"method": method, "path": path,
                          "status": status}))
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        header_blob = await reader.readuntil(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ServiceError(f"body too large ({length} bytes)")
        raw = await reader.readexactly(length) if length else b""
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(f"invalid JSON body: {exc}")
        split = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        return method.upper(), split.path, query, body

    async def _respond(self, writer: asyncio.StreamWriter,
                       status: int, payload) -> None:
        if isinstance(payload, str):  # /metrics: text exposition
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        head = (f"HTTP/1.1 {status} "
                f"{_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict,
                     body) -> Tuple[int, dict]:
        service = self.service
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"] and method == "GET":
            stats = service.stats()
            return 200, {"ok": True, "jobs": stats["jobs"]}
        if parts == ["metrics"] and method == "GET":
            return 200, service.metrics_text()
        if parts == ["stats"] and method == "GET":
            return 200, service.stats()
        if parts == ["jobs"]:
            if method == "POST":
                body = body or {}
                if "config" not in body:
                    raise ServiceError("submit wants a 'config' key")
                job = await service.submit(
                    body["config"],
                    tenant=str(body.get("tenant", "default")),
                    priority=int(body.get("priority", 0)),
                    name=str(body.get("name", "")))
                return 200, job.record()
            if method == "GET":
                return 200, {"jobs": service.list_jobs(
                    tenant=query.get("tenant"))}
            return 405, {"error": f"{method} /jobs unsupported",
                         "type": "ServiceError"}
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return 200, service.get(parts[1]).record()
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, action = parts[1], parts[2]
            if action == "cancel" and method == "POST":
                job = await service.cancel(job_id)
                return 200, job.record()
            if action == "wait" and method == "GET":
                timeout = float(query.get("timeout", "300"))
                try:
                    record = await service.wait(job_id,
                                                timeout=timeout)
                except asyncio.TimeoutError:
                    record = service.get(job_id).record()
                    record["timed_out"] = True
                    return 408, record
                return 200, record
        return 404, {"error": f"no route for {method} {path}",
                     "type": "ServiceError"}


class ServiceThread:
    """A service + endpoint running on a daemon thread.

    The constructor blocks until the endpoint is listening (or the
    loop failed to start); :meth:`stop` shuts both down and joins the
    thread.  Use :attr:`port` /:meth:`client` from the calling
    thread."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 startup_timeout: float = 30.0):
        self._config = config
        self._host = host
        self._requested_port = port
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.service: Optional[SimulationService] = None
        self.port: Optional[int] = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-service",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(startup_timeout):
            raise ServiceError("service thread failed to start in "
                               f"{startup_timeout:.0f}s")
        if self._startup_error is not None:
            raise ServiceError(
                f"service thread failed: {self._startup_error}")

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — reported to caller
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = SimulationService(self._config)
        await self.service.start()
        server = ServiceServer(self.service, host=self._host,
                               port=self._requested_port)
        await server.start()
        self.port = server.port
        self._ready.set()
        await self._stop_event.wait()
        await server.stop()
        await self.service.shutdown()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def client(self, timeout: float = 120.0):
        from .client import ServiceClient
        return ServiceClient(self._host, self.port, timeout=timeout)
