"""ASGI gateway: the typed HTTP front door over :class:`FFTServer`.

The serving core (admission, quotas, EDF scheduling, worker health) is
pure Python objects; this module puts it on a wire.  :class:`Gateway` is
a dependency-free ASGI-3 application — any ASGI server can host it, and
:mod:`repro.serve.httpd` ships a stdlib ``asyncio`` server so tests and
benchmarks need no third-party HTTP stack.

Routes (all JSON/:mod:`repro.serve.wire` bodies; results are raw
``application/octet-stream``)::

    POST /v1/fft               submit        -> 202 AcceptedBody
    POST /v1/fft/wait          submit+wait   -> 200 result stream
    GET  /v1/jobs/{id}         status        -> 200 StatusBody
    GET  /v1/jobs/{id}/result  download      -> 200 result stream
    GET  /v1/health            liveness      -> 200 / 503

A job submitted through ``/v1/fft/wait`` leaves the registry as soon as
its terminal response (the 200 result, or its failure) is built: that
response already carries the outcome, so its id answers 404 afterwards.
Only a wait that times out (504) keeps its job, which stays pollable
under the echoed ``X-FFT-Job`` id.  The registry therefore holds only
jobs a client may still poll, not every result the gateway has served.

Design points, in the idiom of typed-route ASGI frameworks (lihil):

* **Typed endpoints.**  Handlers take a :class:`GatewayRequest` whose
  body has already been parsed into a wire model and return a
  :class:`Response`; serialization lives at the edges, never in
  handlers.
* **Per-route middleware.**  Each :class:`Route` declares its own chain
  (observation, shedding, auth) applied outside-in, so e.g. the health
  probe is never shed and status polls never hit the auth tax that
  submissions pay.
* **Auth-derived tenancy.**  The tenant the quota machinery accounts
  against comes from ``Authorization: Bearer``/``X-Tenant`` headers
  (:class:`TenantAuth`) — never from the request body.
* **Total error taxonomy.**  Every refusal is an
  :class:`~repro.serve.wire.ErrorBody` carrying a stable
  :class:`~repro.serve.codes.ErrorCode`; serve-layer exceptions map
  through their ``reason`` slug, so the HTTP surface and the Python
  surface are the same taxonomy (the conformance suite pins every
  pair).
* **Backpressure sheds.**  At most ``policy.max_inflight`` submissions
  are buffered concurrently; past that the gateway answers 429
  ``gateway_overload`` (with ``Retry-After``) *before* reading the
  body, so overload degrades to cheap refusals instead of unbounded
  buffering.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, AsyncIterator, Awaitable, Callable, Mapping

import numpy as np

from repro.serve.codes import ErrorCode, http_status, needs_retry_after
from repro.serve.errors import ServeError
from repro.serve.request import FFTFuture, FFTRequest
from repro.serve.server import FFTServer
from repro.serve.wire import (
    AcceptedBody,
    ErrorBody,
    StatusBody,
    SubmitBody,
    WireError,
    encode_array,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.cluster.cluster import FFTCluster

__all__ = [
    "GatewayError",
    "GatewayPolicy",
    "TenantAuth",
    "GatewayRequest",
    "Response",
    "Route",
    "Gateway",
]

#: Result bodies stream in chunks of this size.
_CHUNK = 256 * 1024


class GatewayError(Exception):
    """A refusal minted at the gateway itself (never by ``FFTServer``).

    Carries the stable :class:`~repro.serve.codes.ErrorCode`; the
    dispatcher turns it into the mapped HTTP status and
    :class:`~repro.serve.wire.ErrorBody`.
    """

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GatewayPolicy:
    """Wire-level limits and behaviors (the serve policies stay on the server).

    ``max_body_bytes``
        Hard cap on any request body; larger submissions answer 413
        before the grid is decoded.
    ``max_inflight``
        Concurrent requests the gateway will buffer/process at once;
        past this, sheddable routes answer 429 ``gateway_overload``.
    ``retry_after_s``
        The back-off hint stamped on every shed/pressure response.
    ``max_jobs``
        Completed-job retention: the oldest *resolved* jobs are evicted
        past this bound, after which their ids answer 404.  (A job
        answered by ``/v1/fft/wait`` is dropped at once; see the module
        docstring.)
    ``wait_timeout_s``
        Ceiling on ``POST /v1/fft/wait``; a job still unresolved then
        answers 504 ``deadline_expired`` (and keeps running — its id
        stays pollable).
    """

    max_body_bytes: int = 64 << 20
    max_inflight: int = 4096
    retry_after_s: float = 0.05
    max_jobs: int = 65536
    wait_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be positive")
        if self.wait_timeout_s <= 0:
            raise ValueError("wait_timeout_s must be positive")


class TenantAuth:
    """Derives the accounting tenant from auth headers.

    Two accepted forms, checked in order:

    * ``Authorization: Bearer <token>`` — when a ``tokens`` map is
      given, the token must resolve through it (unknown tokens are
      401); with no map the token *is* the tenant id (self-asserted
      identity, the mode demos and benchmarks run in).
    * ``X-Tenant: <tenant>`` — accepted when ``allow_tenant_header``
      (on by default; turn off when fronting untrusted clients).

    Neither header present answers 401 ``unauthenticated`` unless an
    ``anonymous`` tenant is configured.
    """

    def __init__(
        self,
        tokens: Mapping[str, str] | None = None,
        allow_tenant_header: bool = True,
        anonymous: str | None = None,
    ):
        self.tokens = dict(tokens) if tokens is not None else None
        self.allow_tenant_header = allow_tenant_header
        self.anonymous = anonymous

    def resolve(self, headers: Mapping[str, str]) -> str:
        """The tenant for one request (raises 401 :class:`GatewayError`)."""
        auth = headers.get("authorization", "")
        if auth:
            scheme, _, token = auth.partition(" ")
            token = token.strip()
            if scheme.lower() != "bearer" or not token:
                raise GatewayError(
                    ErrorCode.UNAUTHENTICATED,
                    "authorization header must be 'Bearer <token>'",
                )
            if self.tokens is None:
                return token
            tenant = self.tokens.get(token)
            if tenant is None:
                raise GatewayError(ErrorCode.UNAUTHENTICATED, "unknown token")
            return tenant
        if self.allow_tenant_header:
            tenant = headers.get("x-tenant", "").strip()
            if tenant:
                return tenant
        if self.anonymous is not None:
            return self.anonymous
        raise GatewayError(
            ErrorCode.UNAUTHENTICATED,
            "no identity: send 'Authorization: Bearer <token>' or 'X-Tenant'",
        )


@dataclass
class GatewayRequest:
    """One in-flight HTTP request, as handlers see it (post-middleware)."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""
    #: Path parameters extracted by the router (``{id}`` segments).
    params: dict[str, str] = field(default_factory=dict)
    #: Filled by the auth middleware before a handler runs.
    tenant: str = ""


@dataclass
class Response:
    """One HTTP response: status, headers, and a body or chunk stream."""

    status: int
    body: bytes = b""
    headers: list[tuple[str, str]] = field(default_factory=list)
    #: When set, streamed after ``body`` (which is then ignored).
    chunks: AsyncIterator[bytes] | None = None
    content_type: str = "application/json"


#: A typed endpoint: request in, response out.
Handler = Callable[[GatewayRequest], Awaitable[Response]]
#: Wraps a handler; applied outside-in per route.
Middleware = Callable[[Handler], Handler]


@dataclass(frozen=True)
class Route:
    """One routable endpoint and its middleware chain."""

    method: str
    pattern: str
    name: str
    handler: Handler
    middleware: tuple[Middleware, ...] = ()
    #: Sheddable routes answer 429 under gateway overload *before* the
    #: body is read; cheap read-only routes keep working under load.
    sheddable: bool = False

    def compose(self) -> Handler:
        """The handler with its middleware applied (first = outermost)."""
        handler = self.handler
        for mw in reversed(self.middleware):
            handler = mw(handler)
        return handler

    def match(self, path: str) -> dict[str, str] | None:
        """Path params when ``path`` matches this route's pattern."""
        want = self.pattern.strip("/").split("/")
        got = path.strip("/").split("/")
        if len(want) != len(got):
            return None
        params: dict[str, str] = {}
        for w, g in zip(want, got):
            if w.startswith("{") and w.endswith("}"):
                if not g:
                    return None
                params[w[1:-1]] = g
            elif w != g:
                return None
        return params


@dataclass
class _Job:
    """The gateway's record of one accepted submission."""

    job_id: str
    tenant: str
    plan: str
    future: FFTFuture


class Gateway:
    """The ASGI application: typed routes over one serving core.

    Call the instance per the ASGI 3 single-callable contract
    (``await gateway(scope, receive, send)``).  The gateway owns no
    sockets and no threads — hosting and lifecycle belong to the ASGI
    server (:mod:`repro.serve.httpd` or any other).

    Parameters
    ----------
    server:
        The serving core requests land on — a single
        :class:`FFTServer`, or an
        :class:`~repro.cluster.cluster.FFTCluster`, whose ``submit``
        routes each ``/v1/fft`` body through the consistent-hash tier
        to a node replica.  The cluster's typed failures (node loss
        re-queue exhaustion, a fully-dead fleet) are existing
        :class:`~repro.serve.errors.ServeError` reasons, so they
        project onto the same :class:`ErrorCode` statuses as a single
        server's — node loss adds no new codes.  Either way its metrics
        registry also receives the ``gateway.*`` family, so one
        snapshot shows the wire and the device ends of the same
        traffic.
    auth:
        Tenant derivation (default: self-asserted bearer/X-Tenant).
    policy:
        Wire-level limits (:class:`GatewayPolicy`).
    """

    def __init__(
        self,
        server: FFTServer | FFTCluster,
        auth: TenantAuth | None = None,
        policy: GatewayPolicy | None = None,
    ):
        self.server = server
        self.auth = auth or TenantAuth()
        self.policy = policy or GatewayPolicy()
        self.metrics = server.metrics
        self._jobs: OrderedDict[str, _Job] = OrderedDict()
        # A thread lock (not asyncio): guarded sections never await, and
        # it keeps one Gateway usable across event loops (tests open a
        # fresh loop per request).
        self._jobs_lock = threading.Lock()
        self._job_seq = count()
        self._job_salt = os.urandom(4).hex()
        self._inflight = 0
        self._epoch = time.monotonic()
        observe, shed, authn = self._observe, self._shed, self._authenticate
        self.routes: tuple[Route, ...] = (
            Route(
                "POST", "/v1/fft", "submit", self._submit,
                middleware=(observe, shed, authn), sheddable=True,
            ),
            Route(
                "POST", "/v1/fft/wait", "submit_wait", self._submit_wait,
                middleware=(observe, shed, authn), sheddable=True,
            ),
            Route(
                "GET", "/v1/jobs/{job_id}", "status", self._status,
                middleware=(observe,),
            ),
            Route(
                "GET", "/v1/jobs/{job_id}/result", "result", self._result,
                middleware=(observe,),
            ),
            Route("GET", "/v1/health", "health", self._health,
                  middleware=(observe,)),
        )

    # ------------------------------------------------------------------
    # Error projection
    # ------------------------------------------------------------------

    def error_response(self, code: ErrorCode, message: str) -> Response:
        """The typed refusal for ``code``: mapped status, body, Retry-After."""
        retry = self.policy.retry_after_s if needs_retry_after(code) else None
        body = ErrorBody(code=code, message=message, retry_after_s=retry)
        headers = []
        if retry is not None:
            # Retry-After is integer seconds on the wire; never round a
            # sub-second hint down to "retry immediately".
            headers.append(("retry-after", str(max(1, round(retry)))))
        self.metrics.counter(
            "gateway.errors", "responses", {"code": str(code)}
        ).inc()
        return Response(
            status=http_status(code), body=body.encode(), headers=headers
        )

    def _map_exception(self, exc: BaseException) -> Response:
        """Any failure, projected onto the wire taxonomy."""
        if isinstance(exc, GatewayError):
            return self.error_response(exc.code, str(exc))
        if isinstance(exc, WireError):
            return self.error_response(exc.code, str(exc))
        if isinstance(exc, ServeError):
            return self.error_response(ErrorCode(str(exc.reason)), str(exc))
        return self.error_response(
            ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
        )

    # ------------------------------------------------------------------
    # Middleware
    # ------------------------------------------------------------------

    def _observe(self, handler: Handler) -> Handler:
        """Metrics + span middleware: every route wears it outermost."""

        async def observed(req: GatewayRequest) -> Response:
            t0 = time.monotonic()
            self._inflight += 1
            self.metrics.gauge("gateway.inflight", "requests").set(self._inflight)
            try:
                resp = await handler(req)
            except Exception as exc:  # noqa: BLE001 - typed wire surface
                resp = self._map_exception(exc)
            finally:
                self._inflight -= 1
                self.metrics.gauge("gateway.inflight", "requests").set(
                    self._inflight
                )
            wall = time.monotonic() - t0
            route = req.params.get("__route__", req.path)
            self.metrics.counter(
                "gateway.requests", "requests",
                {"route": route, "status": str(resp.status)},
            ).inc()
            self.metrics.counter("gateway.requests", "requests").inc()
            self.metrics.histogram("gateway.latency.seconds", "s").observe(wall)
            profiler = self.server.profiler
            if profiler is not None:
                profiler.tracer.emit(
                    "host",
                    f"gateway:{route}",
                    start=t0 - self._epoch,
                    seconds=wall,
                    route=route,
                    status=resp.status,
                )
            return resp

        return observed

    def _shed(self, handler: Handler) -> Handler:
        """Overload middleware: refuse cheaply past ``max_inflight``.

        The ASGI layer has already refused to *buffer* the body for shed
        requests; this layer is the second gate for in-process callers
        that bypass HTTP framing (in-process ASGI tests, for example).
        """

        async def shedding(req: GatewayRequest) -> Response:
            if self._inflight > self.policy.max_inflight:
                self.metrics.counter(
                    "gateway.shed", "requests", {"reason": "overload"}
                ).inc()
                return self.error_response(
                    ErrorCode.GATEWAY_OVERLOAD,
                    f"gateway at its concurrency bound "
                    f"({self.policy.max_inflight}); retry shortly",
                )
            return await handler(req)

        return shedding

    def _authenticate(self, handler: Handler) -> Handler:
        """Auth middleware: fill ``req.tenant`` or answer 401."""

        async def authenticated(req: GatewayRequest) -> Response:
            req.tenant = self.auth.resolve(req.headers)
            return await handler(req)

        return authenticated

    # ------------------------------------------------------------------
    # Handlers (typed endpoints)
    # ------------------------------------------------------------------

    async def _admit(self, req: GatewayRequest) -> _Job:
        """Parse, authenticate and submit one request; registers the job."""
        submit = SubmitBody.parse(req.body, max_bytes=self.policy.max_body_bytes)
        fft_req = FFTRequest(
            submit.data,
            precision=submit.precision,
            norm=submit.norm,
            inverse=submit.inverse,
            priority=submit.priority,
            deadline_s=submit.deadline_s,
            tenant=req.tenant,
        )
        # submit() is thread-safe and non-blocking (admission is a lock
        # and a push); safe to call on the event loop.
        future = self.server.submit(fft_req)
        job_id = f"j{next(self._job_seq):08d}-{self._job_salt}"
        job = _Job(
            job_id=job_id,
            tenant=req.tenant,
            plan=fft_req.plan_key().slug,
            future=future,
        )
        with self._jobs_lock:
            self._jobs[job_id] = job
            while len(self._jobs) > self.policy.max_jobs:
                evicted = self._evict_one_done()
                if not evicted:
                    break
        return job

    def _evict_one_done(self) -> bool:
        """Drop the oldest resolved job (jobs lock held); False when none."""
        for job_id, job in self._jobs.items():
            if job.future.done():
                del self._jobs[job_id]
                return True
        return False

    async def _submit(self, req: GatewayRequest) -> Response:
        """``POST /v1/fft``: admit and answer 202 with the job handle."""
        job = await self._admit(req)
        body = AcceptedBody(
            job_id=job.job_id,
            tenant=job.tenant,
            plan=job.plan,
            queue_depth=self.server.queue.depth,
        )
        return Response(status=202, body=body.encode())

    async def _submit_wait(self, req: GatewayRequest) -> Response:
        """``POST /v1/fft/wait``: admit, await resolution, stream the result."""
        job = await self._admit(req)
        loop = asyncio.get_running_loop()
        done = asyncio.Event()
        job.future.add_done_callback(
            lambda _fut: loop.call_soon_threadsafe(done.set)
        )
        try:
            await asyncio.wait_for(done.wait(), self.policy.wait_timeout_s)
        except asyncio.TimeoutError:
            resp = self.error_response(
                ErrorCode.DEADLINE_EXPIRED,
                f"job {job.job_id} still unresolved after "
                f"{self.policy.wait_timeout_s}s; poll /v1/jobs/{job.job_id}",
            )
            resp.headers.append(("x-fft-job", job.job_id))
            return resp
        # The response carries the outcome: nothing is left to poll.
        with self._jobs_lock:
            self._jobs.pop(job.job_id, None)
        return self._result_response(job)

    async def _status(self, req: GatewayRequest) -> Response:
        """``GET /v1/jobs/{id}``: the job's observable state."""
        job = await self._lookup(req.params["job_id"])
        fut = job.future
        if not fut.done():
            state, error_code, error_message = "queued", None, None
        else:
            exc = fut.exception()
            if exc is None:
                state, error_code, error_message = "done", None, None
            else:
                state = "failed"
                error_code = str(self._map_code(exc))
                error_message = str(exc)
        body = StatusBody(
            job_id=job.job_id,
            state=state,
            tenant=job.tenant,
            plan=job.plan,
            batch_id=fut.batch_id,
            batch_size=fut.batch_size,
            worker=fut.worker,
            requeues=fut.requeues,
            faulted=fut.faulted,
            queue_wait_s=fut.queue_wait_s,
            error_code=error_code,
            error_message=error_message,
        )
        return Response(status=200, body=body.encode())

    async def _result(self, req: GatewayRequest) -> Response:
        """``GET /v1/jobs/{id}/result``: stream the grid once resolved."""
        job = await self._lookup(req.params["job_id"])
        if not job.future.done():
            return self.error_response(
                ErrorCode.RESULT_PENDING,
                f"job {job.job_id} has not resolved yet",
            )
        return self._result_response(job)

    async def _health(self, req: GatewayRequest) -> Response:
        """``GET /v1/health``: 200 when admitting, typed 503 otherwise."""
        srv = self.server
        if srv._closed:
            return self.error_response(
                ErrorCode.SERVER_CLOSED, "server is closed"
            )
        if srv.draining:
            return self.error_response(
                ErrorCode.DRAINING, "server is draining; admission paused"
            )
        if not srv.health.any_dispatchable():
            return self.error_response(
                ErrorCode.UNHEALTHY,
                "no dispatchable worker (all breakers open)",
            )
        stats = srv.stats()
        payload = {
            "status": "ok",
            "queue_depth": stats.queue_depth,
            "inflight": stats.inflight,
            "completed": stats.completed,
            "workers": {str(k): v for k, v in stats.worker_health.items()},
        }
        # Cluster cores (ClusterStats) also report per-node liveness.
        node_alive = getattr(stats, "node_alive", None)
        if node_alive is not None:
            payload["nodes"] = {
                name: ("alive" if alive else "dead")
                for name, alive in node_alive.items()
            }
        return Response(
            status=200, body=json.dumps(payload, sort_keys=True).encode()
        )

    # ------------------------------------------------------------------
    # Result plumbing
    # ------------------------------------------------------------------

    def _map_code(self, exc: BaseException) -> ErrorCode:
        """The stable code for a resolved job's failure."""
        if isinstance(exc, ServeError):
            return ErrorCode(str(exc.reason))
        return ErrorCode.INTERNAL

    async def _lookup(self, job_id: str) -> _Job:
        """The job for ``job_id`` (404 :class:`GatewayError` when unknown)."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise GatewayError(
                ErrorCode.NOT_FOUND, f"no such job: {job_id}"
            )
        return job

    def _result_response(self, job: _Job) -> Response:
        """The terminal response for a resolved job (result or failure)."""
        exc = job.future.exception()
        if exc is not None:
            resp = self._map_exception(exc)
            resp.headers.append(("x-fft-job", job.job_id))
            return resp
        out = job.future.result()
        payload = encode_array(out)

        async def stream() -> AsyncIterator[bytes]:
            for i in range(0, len(payload), _CHUNK):
                yield payload[i : i + _CHUNK]

        self.metrics.counter("gateway.bytes.out", "bytes").inc(len(payload))
        return Response(
            status=200,
            headers=[
                ("x-fft-job", job.job_id),
                ("x-fft-shape", "x".join(str(n) for n in np.shape(out))),
                ("x-fft-dtype", str(np.asarray(out).dtype)),
                ("content-length", str(len(payload))),
            ],
            chunks=stream(),
            content_type="application/octet-stream",
        )

    # ------------------------------------------------------------------
    # ASGI plumbing
    # ------------------------------------------------------------------

    def _route_for(self, method: str, path: str):
        """(route, params) for a request line; raises typed 404/405."""
        allowed: list[str] = []
        for route in self.routes:
            params = route.match(path)
            if params is None:
                continue
            if route.method == method:
                return route, params
            allowed.append(route.method)
        if allowed:
            raise GatewayError(
                ErrorCode.METHOD_NOT_ALLOWED,
                f"{method} not allowed on {path} (allowed: {sorted(set(allowed))})",
            )
        raise GatewayError(ErrorCode.NOT_FOUND, f"no such route: {path}")

    def _overloaded(self) -> bool:
        """True when sheddable requests must be refused before buffering."""
        return self._inflight >= self.policy.max_inflight

    async def _read_body(self, receive) -> bytes:
        """Drain the ASGI receive channel, bounded by ``max_body_bytes``."""
        chunks: list[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise GatewayError(
                    ErrorCode.BAD_REQUEST, "client disconnected mid-body"
                )
            body = message.get("body", b"")
            total += len(body)
            if total > self.policy.max_body_bytes:
                raise GatewayError(
                    ErrorCode.PAYLOAD_TOO_LARGE,
                    f"body exceeds {self.policy.max_body_bytes} bytes",
                )
            chunks.append(body)
            if not message.get("more_body", False):
                return b"".join(chunks)

    async def _send_response(self, send, resp: Response) -> None:
        """Emit one :class:`Response` as ASGI send messages."""
        headers = [(b"content-type", resp.content_type.encode("ascii"))]
        has_length = False
        for name, value in resp.headers:
            if name.lower() == "content-length":
                has_length = True
            headers.append(
                (name.lower().encode("ascii"), str(value).encode("latin-1"))
            )
        if resp.chunks is None and not has_length:
            headers.append(
                (b"content-length", str(len(resp.body)).encode("ascii"))
            )
        await send(
            {
                "type": "http.response.start",
                "status": resp.status,
                "headers": headers,
            }
        )
        if resp.chunks is None:
            await send(
                {
                    "type": "http.response.body",
                    "body": resp.body,
                    "more_body": False,
                }
            )
            return
        async for chunk in resp.chunks:
            await send(
                {"type": "http.response.body", "body": chunk, "more_body": True}
            )
        await send({"type": "http.response.body", "body": b"", "more_body": False})

    async def __call__(self, scope, receive, send) -> None:
        """The ASGI 3 application entry point."""
        if scope["type"] == "lifespan":
            # Minimal lifespan protocol: acknowledge startup/shutdown.
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
        if scope["type"] != "http":
            raise RuntimeError(f"unsupported ASGI scope: {scope['type']!r}")
        headers = {
            k.decode("latin-1").lower(): v.decode("latin-1")
            for k, v in scope.get("headers", [])
        }
        method = scope["method"].upper()
        path = scope["path"]
        try:
            route, params = self._route_for(method, path)
            if route.sheddable and self._overloaded():
                # Refuse before buffering the body: backpressure becomes
                # a cheap typed shed, not memory growth.
                self.metrics.counter(
                    "gateway.shed", "requests", {"reason": "overload"}
                ).inc()
                resp = self.error_response(
                    ErrorCode.GATEWAY_OVERLOAD,
                    f"gateway at its concurrency bound "
                    f"({self.policy.max_inflight}); retry shortly",
                )
                await self._send_response(send, resp)
                return
            body = await self._read_body(receive)
        except (GatewayError, WireError) as exc:
            await self._send_response(send, self._map_exception(exc))
            return
        params["__route__"] = route.name
        req = GatewayRequest(
            method=method,
            path=path,
            headers=headers,
            body=body,
            params=params,
        )
        self.metrics.counter("gateway.bytes.in", "bytes").inc(len(body))
        resp = await route.compose()(req)
        await self._send_response(send, resp)
