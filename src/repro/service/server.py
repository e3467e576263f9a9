"""The long-lived fleet service: stdlib-asyncio HTTP over ``repro.api``.

One process serves the paper's whole characterization surface:

* ``POST /v1/characterize|screen|sweep|schedule|monitor`` — body is the
  canonical JSON of the matching :mod:`repro.api.requests` object (the
  path fixes ``kind``; a mismatching body ``kind`` is a 400);
* ``GET /v1/healthz`` — liveness + queue depth;
* ``GET /metrics`` — Prometheus text exposition of the ``service_*``
  counters and latency histogram, the solver/engine work counters the
  runner reports per executed campaign (``repro_solver_solves_total``,
  ``repro_engine_clamp_reevaluations_total``, ...), and a
  ``service_uptime_seconds`` gauge.

Request flow: parse → deserialize to the exact request object the Python
facade takes → :class:`~repro.service.coalesce.CoalescingBroker` (cache →
join in-flight → execute on the bounded
:class:`~repro.service.pool.WorkerPool`).  Transport status rides in
headers (``X-Repro-Cache: hit|miss|coalesced``, ``X-Repro-Digest``, and —
with ``--timeline`` — ``X-Repro-Timeline``, the request's admission event
id on the flight-recorder timeline), so response *bodies* stay
byte-identical for one digest no matter how they were produced.
Saturation maps to 429, expired deadlines to 503, bad requests to 400 —
all with canonical JSON error bodies.

HTTP/1.1 is hand-rolled on :func:`asyncio.start_server` (no third-party
web framework, per the repo's stdlib-only constraint): one request per
connection, ``Connection: close``, bounded header and body sizes.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from ..api import execute_request
from ..api.requests import REQUEST_KINDS, request_digest, request_from_dict
from ..config import require
from ..errors import (
    ConfigError,
    DeadlineExceeded,
    ReproError,
    ServiceError,
    ServiceSaturated,
)
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.timeline import TimelineRecorder
from ..obs.tracer import Tracer, activate
from .coalesce import CoalescingBroker, ResponseCache
from .pool import WorkerPool
from .wire import build_response, encode_response

__all__ = ["ServiceConfig", "FleetService", "default_runner"]

_log = logging.getLogger(__name__)

#: Upper bound on request head (request line + headers) we will buffer.
_MAX_HEAD_BYTES = 16 * 1024
#: Upper bound on request body size.
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


#: Counter prefixes (tracer dotted names) the runner reports per campaign.
#: Deterministic work totals only — wall-clock-free, so ``GET /metrics``
#: stays reproducible for a given request history.
_RUNNER_COUNTER_PREFIXES = ("solver.", "engine.", "sched.")


def default_runner(request) -> tuple[bytes, dict[str, int | float]]:
    """Execute a request through the facade; canonical body + work counters.

    This is the unit of work the broker submits to the pool — the same
    :func:`repro.api.execute_request` path Python callers use, then the
    same canonical encoding the cache stores.  The campaign runs under a
    private :class:`~repro.obs.tracer.Tracer` whose deterministic
    solver/engine counters ride back with the body; the broker folds them
    into the service registry once per execution.
    """
    tracer = Tracer()
    with activate(tracer):
        result = execute_request(request)
    body = encode_response(build_response(request, result))
    counters = {
        name: value
        for name, value in tracer.deterministic_counters().items()
        if name.startswith(_RUNNER_COUNTER_PREFIXES)
    }
    return body, counters


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`FleetService` instance.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`FleetService.port` after :meth:`FleetService.start` — the test
    and in-process loadgen path).  ``max_pending`` and ``cache_entries``
    bound the two queues that make the service safe to leave running.
    ``timeline_path`` streams one flight-recorder admission event per
    request to a JSON Lines file (inspect with ``repro replay``).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    backend: str = "thread"
    max_pending: int = 8
    cache_entries: int = 64
    timeline_path: str | None = None

    def __post_init__(self) -> None:
        require(0 <= self.port <= 65535, f"port out of range: {self.port}")
        require(self.workers >= 1, f"workers must be >= 1, got {self.workers}")


class FleetService:
    """The asyncio HTTP server wiring parser → broker → pool → metrics.

    ``runner`` defaults to :func:`default_runner` (real campaigns); tests
    inject stubs to probe coalescing, backpressure, and deadline handling
    without simulating physics.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        runner=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self.pool = WorkerPool(
            workers=self.config.workers,
            max_pending=self.config.max_pending,
            backend=self.config.backend,
        )
        self.cache = ResponseCache(max_entries=self.config.cache_entries)
        self.broker = CoalescingBroker(
            runner if runner is not None else default_runner,
            self.pool,
            self.cache,
            self.metrics,
        )
        self._server: asyncio.AbstractServer | None = None
        self.timeline: TimelineRecorder | None = None
        self._timeline_stream = None
        self._started_monotonic: float | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actual bound port (resolves ``port=0`` after ``start``)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        if self.config.timeline_path is not None and self.timeline is None:
            # Long-lived process: stream events as they happen rather
            # than buffering an unbounded in-memory timeline.
            self._timeline_stream = open(
                self.config.timeline_path, "w", encoding="utf-8"
            )
            self.timeline = TimelineRecorder(stream=self._timeline_stream)
            self.timeline.record(
                "service", "service_start", self.config.host,
                workers=self.config.workers,
                backend=self.config.backend,
                max_pending=self.config.max_pending,
                cache_entries=self.config.cache_entries,
            )
            self.broker.timeline = self.timeline
        self._started_monotonic = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Stop accepting connections and shut the worker pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.shutdown(wait=False)
        if self._timeline_stream is not None:
            self.broker.timeline = None
            self.timeline = None
            self._timeline_stream.close()
            self._timeline_stream = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled — the CLI entry."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve exactly one HTTP request, then close the connection."""
        started = time.perf_counter()
        try:
            method, path, headers, body = await _read_request(reader)
        except ServiceError as exc:
            await _write_response(
                writer, 400, _error_body("bad_request", str(exc))
            )
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        status, body_bytes, extra_headers = await self._dispatch(
            method, path, body
        )
        self.metrics.observe(
            "service_request_latency_s",
            np.array([time.perf_counter() - started]),
            help="wall-clock seconds from request head to response write",
        )
        await _write_response(
            writer, status, body_bytes, extra_headers=extra_headers
        )

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, dict[str, str]]:
        """Route one parsed request to a handler; map errors to statuses."""
        if path == "/v1/healthz":
            if method != "GET":
                return 405, _error_body("method", "healthz is GET-only"), {}
            payload = {
                "status": "ok",
                "pending": self.pool.pending,
                "cache_entries": len(self.cache),
            }
            return 200, encode_response(payload), {}
        if path == "/metrics":
            if method != "GET":
                return 405, _error_body("method", "metrics is GET-only"), {}
            if self._started_monotonic is not None:
                self.metrics.set_gauge(
                    "service_uptime_seconds",
                    time.monotonic() - self._started_monotonic,
                    help="seconds since the service started accepting "
                         "connections",
                )
            text = render_prometheus(self.metrics)
            return 200, text.encode("utf-8"), {
                "Content-Type": "text/plain; version=0.0.4"
            }
        if path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if kind in REQUEST_KINDS:
                if method != "POST":
                    return 405, _error_body(
                        "method", f"/v1/{kind} is POST-only"
                    ), {}
                return await self._handle_verb(kind, body)
        return 404, _error_body("not_found", f"no route for {path!r}"), {}

    async def _handle_verb(
        self, kind: str, body: bytes
    ) -> tuple[int, bytes, dict[str, str]]:
        """Deserialize, run through the broker, map service errors."""
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _error_body("bad_json", str(exc)), {}
        if not isinstance(data, dict):
            return 400, _error_body("bad_json", "body must be a JSON object"), {}
        data.setdefault("kind", kind)
        try:
            request = request_from_dict(data)
            if request.kind != kind:
                raise ConfigError(
                    f"body kind {request.kind!r} does not match /v1/{kind}"
                )
            digest = request_digest(request)
            reply = await self.broker.submit(request, digest)
        except ServiceSaturated as exc:
            return 429, _error_body("saturated", str(exc)), {
                "Retry-After": "1"
            }
        except DeadlineExceeded as exc:
            return 503, _error_body("deadline", str(exc)), {}
        except ConfigError as exc:
            return 400, _error_body("bad_request", str(exc)), {}
        except ReproError as exc:
            return 500, _error_body("error", str(exc)), {}
        except Exception as exc:
            # Anything else is a bug, but the client still gets an answer
            # and the connection task survives to serve the next request.
            _log.exception("unexpected error serving /v1/%s", kind)
            return 500, _error_body(
                "internal", f"{type(exc).__name__}: {exc}"
            ), {}
        headers = {
            "X-Repro-Cache": reply.status,
            "X-Repro-Digest": reply.digest,
        }
        if reply.timeline_id is not None:
            headers["X-Repro-Timeline"] = str(reply.timeline_id)
        return 200, reply.body, headers


def _error_body(code: str, message: str) -> bytes:
    """Canonical JSON error body shared by every non-200 response."""
    return encode_response({"error": {"code": code, "message": message}})


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one HTTP/1.x request: (method, path, headers, body).

    Raises :class:`~repro.errors.ServiceError` on malformed heads and
    oversized heads/bodies; connection-level EOF errors propagate.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise ServiceError("request head too large") from exc
    if len(head) > _MAX_HEAD_BYTES:
        raise ServiceError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ServiceError(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ServiceError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ServiceError(
            f"bad Content-Length: {length_text!r}"
        ) from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ServiceError(f"body size out of bounds: {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Write one HTTP/1.1 response and close the connection."""
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    head = f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head += "\r\n"
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()
