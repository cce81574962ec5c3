"""Gateway happy paths: correctness, auth, retention, metrics, framing.

The conformance suite pins the refusal surface; this one pins the
success surface — results bit-identical to a direct engine run, tenancy
derived from headers (never the body), bounded job retention, the
``gateway.*`` observability family, and the HTTP/1.1 framing of the
stdlib host in :mod:`repro.serve.httpd`.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.obs.profiler import Profiler
from repro.serve import (
    AcceptedBody,
    AsgiHttpServer,
    FFTServer,
    Gateway,
    GatewayPolicy,
    HttpClient,
    StatusBody,
    TenantAuth,
    decode_array,
)
from repro.serve.wire import DTYPES
from tests.serve.gateway.conftest import SHAPE, TENANT, grid, http, submit_bytes


class TestSubmitStatusResult:
    def test_submit_poll_download_matches_direct_engine(
        self, sync_server, sync_gateway
    ):
        raw, x = submit_bytes(seed=11, norm="ortho")
        accepted = AcceptedBody.parse(
            http(sync_gateway, "POST", "/v1/fft", TENANT, raw).body
        )
        assert accepted.tenant == "test-tenant"
        assert accepted.plan == "16x16x16-single-ortho-fwd"
        assert accepted.queue_depth == 1

        queued = StatusBody.parse(
            http(sync_gateway, "GET", f"/v1/jobs/{accepted.job_id}").body
        )
        assert queued.state == "queued"

        sync_server.run_pending()
        done = StatusBody.parse(
            http(sync_gateway, "GET", f"/v1/jobs/{accepted.job_id}").body
        )
        assert done.state == "done"
        assert done.batch_size == 1
        assert done.error_code is None

        resp = http(
            sync_gateway, "GET", f"/v1/jobs/{accepted.job_id}/result"
        )
        assert resp.status == 200
        assert resp.header("content-type") == "application/octet-stream"
        assert resp.header("x-fft-shape") == "16x16x16"
        assert resp.header("x-fft-dtype") == "complex64"
        assert resp.header("x-fft-job") == accepted.job_id
        assert int(resp.header("content-length")) == len(resp.body)
        out = decode_array(resp.body, SHAPE, DTYPES["single"])
        with GpuFFT3D(SHAPE, norm="ortho") as plan:
            assert np.array_equal(out, plan.forward(x))

    def test_inverse_double_precision_round_trip(
        self, sync_server, sync_gateway
    ):
        raw, x = submit_bytes(seed=3, precision="double", inverse=True)
        accepted = AcceptedBody.parse(
            http(sync_gateway, "POST", "/v1/fft", TENANT, raw).body
        )
        sync_server.run_pending()
        resp = http(
            sync_gateway, "GET", f"/v1/jobs/{accepted.job_id}/result"
        )
        assert resp.header("x-fft-dtype") == "complex128"
        out = decode_array(resp.body, SHAPE, DTYPES["double"])
        with GpuFFT3D(SHAPE, precision="double") as plan:
            assert np.array_equal(out, plan.inverse(x))

    def test_wait_endpoint_matches_submit_then_poll(self, live_gateway):
        raw, x = submit_bytes(seed=5)
        resp = http(live_gateway, "POST", "/v1/fft/wait", TENANT, raw)
        assert resp.status == 200
        out = decode_array(resp.body, SHAPE, DTYPES["single"])
        with GpuFFT3D(SHAPE) as plan:
            assert np.array_equal(out, plan.forward(x))

    def test_job_ids_are_unique_and_opaque(self, sync_gateway):
        raw, _ = submit_bytes()
        ids = {
            AcceptedBody.parse(
                http(sync_gateway, "POST", "/v1/fft", TENANT, raw).body
            ).job_id
            for _ in range(5)
        }
        assert len(ids) == 5


class TestTenancy:
    def test_token_map_resolves_and_unknown_token_is_401(self, sync_server):
        gw = Gateway(
            sync_server,
            auth=TenantAuth(tokens={"s3cret": "acme"}, allow_tenant_header=False),
        )
        raw, _ = submit_bytes()
        ok = http(
            gw, "POST", "/v1/fft", {"authorization": "Bearer s3cret"}, raw
        )
        assert AcceptedBody.parse(ok.body).tenant == "acme"
        assert (
            http(gw, "POST", "/v1/fft", {"authorization": "Bearer nope"}, raw)
        ).status == 401
        assert (
            http(gw, "POST", "/v1/fft", {"authorization": "Basic s3cret"}, raw)
        ).status == 401
        assert http(gw, "POST", "/v1/fft", TENANT, raw).status == 401

    def test_self_asserted_bearer_token_is_the_tenant(self, sync_gateway):
        raw, _ = submit_bytes()
        resp = http(
            sync_gateway,
            "POST",
            "/v1/fft",
            {"authorization": "Bearer 租户-β-🙂".encode().decode("latin-1")},
            raw,
        )
        tenant = AcceptedBody.parse(resp.body).tenant
        assert tenant.encode("latin-1").decode("utf-8") == "租户-β-🙂"

    def test_anonymous_fallback_when_configured(self, sync_server):
        gw = Gateway(sync_server, auth=TenantAuth(anonymous="guest"))
        raw, _ = submit_bytes()
        resp = http(gw, "POST", "/v1/fft", None, raw)
        assert AcceptedBody.parse(resp.body).tenant == "guest"

    def test_body_tenant_never_overrides_auth(self, sync_server, sync_gateway):
        # The body claims another tenant; accounting must follow auth.
        raw, _ = submit_bytes(tenant="somebody-else")
        resp = http(sync_gateway, "POST", "/v1/fft", TENANT, raw)
        assert AcceptedBody.parse(resp.body).tenant == "test-tenant"
        sync_server.run_pending()
        per = sync_server.stats().per_tenant_completed
        assert per == {"test-tenant": 1}


class TestRetention:
    def test_oldest_resolved_jobs_are_evicted(self, sync_server):
        gw = Gateway(sync_server, policy=GatewayPolicy(max_jobs=2))
        raw, _ = submit_bytes()
        first = AcceptedBody.parse(
            http(gw, "POST", "/v1/fft", TENANT, raw).body
        ).job_id
        sync_server.run_pending()
        second = AcceptedBody.parse(
            http(gw, "POST", "/v1/fft", TENANT, raw).body
        ).job_id
        third = AcceptedBody.parse(
            http(gw, "POST", "/v1/fft", TENANT, raw).body
        ).job_id
        # first had resolved, so it paid for third's slot.
        assert http(gw, "GET", f"/v1/jobs/{first}").status == 404
        assert http(gw, "GET", f"/v1/jobs/{second}").status == 200
        assert http(gw, "GET", f"/v1/jobs/{third}").status == 200

    def test_unresolved_jobs_are_never_evicted(self, sync_server):
        gw = Gateway(sync_server, policy=GatewayPolicy(max_jobs=2))
        raw, _ = submit_bytes()
        ids = [
            AcceptedBody.parse(
                http(gw, "POST", "/v1/fft", TENANT, raw).body
            ).job_id
            for _ in range(3)
        ]
        # All three still queued: over budget, but nothing resolvable.
        for job_id in ids:
            assert http(gw, "GET", f"/v1/jobs/{job_id}").status == 200

    def test_answered_waits_leave_the_registry(self, live_gateway):
        # Each 200 carries its result, so no waited job stays registered
        # (the registry would otherwise grow with every request served).
        raw, _ = submit_bytes()
        for _ in range(6):
            resp = http(live_gateway, "POST", "/v1/fft/wait", TENANT, raw)
            assert resp.status == 200
        assert len(live_gateway._jobs) == 0
        job_id = resp.header("x-fft-job")
        assert http(live_gateway, "GET", f"/v1/jobs/{job_id}").status == 404


class TestObservability:
    def test_gateway_metrics_family(self, sync_server, sync_gateway):
        raw, _ = submit_bytes()
        http(sync_gateway, "POST", "/v1/fft", TENANT, raw)
        http(sync_gateway, "GET", "/v1/health")
        http(sync_gateway, "GET", "/v1/nope")
        counters = sync_server.metrics.snapshot()["counters"]
        assert counters["gateway.requests{route=submit,status=202}"]["value"] == 1
        assert counters["gateway.requests{route=health,status=200}"]["value"] == 1
        # Routing rejections never reach a handler, so they count as
        # errors (by code) without a per-route request entry.
        assert counters["gateway.requests"]["value"] == 2
        assert counters["gateway.bytes.in"]["value"] >= len(raw)
        assert counters["gateway.errors{code=not_found}"]["value"] == 1
        hist = sync_server.metrics.snapshot()["histograms"]
        assert hist["gateway.latency.seconds"]["count"] == 2

    def test_bytes_out_and_spans_with_profiler(self):
        with Profiler() as prof:
            with FFTServer(start=False, profiler=prof) as srv:
                gw = Gateway(srv)
                raw, _ = submit_bytes()
                job_id = AcceptedBody.parse(
                    http(gw, "POST", "/v1/fft", TENANT, raw).body
                ).job_id
                srv.run_pending()
                resp = http(gw, "GET", f"/v1/jobs/{job_id}/result")
                assert resp.status == 200
                counters = srv.metrics.snapshot()["counters"]
                assert counters["gateway.bytes.out"]["value"] == len(resp.body)
                labels = {s.label for s in prof.tracer.spans()}
                assert "gateway:submit" in labels
                assert "gateway:result" in labels

    def test_health_payload_shape(self, sync_server, sync_gateway):
        raw, _ = submit_bytes()
        http(sync_gateway, "POST", "/v1/fft", TENANT, raw)
        body = json.loads(http(sync_gateway, "GET", "/v1/health").body)
        assert body["status"] == "ok"
        assert body["queue_depth"] == 1
        assert body["workers"] == {"0": "healthy"}


class TestHttpFraming:
    """The stdlib host's HTTP/1.1 behavior over real sockets."""

    def _run(self, coro):
        return asyncio.run(coro)

    def test_keep_alive_serves_sequential_requests_on_one_socket(
        self, live_gateway
    ):
        async def scenario():
            async with AsgiHttpServer(live_gateway) as server:
                async with HttpClient("127.0.0.1", server.port) as client:
                    raw, x = submit_bytes(seed=21)
                    first = await client.request(
                        "POST", "/v1/fft/wait", headers=TENANT, body=raw
                    )
                    second = await client.request("GET", "/v1/health")
                    return first, second, x

        first, second, x = self._run(scenario())
        assert first.status == 200
        out = decode_array(first.body, SHAPE, DTYPES["single"])
        with GpuFFT3D(SHAPE) as plan:
            assert np.array_equal(out, plan.forward(x))
        assert second.status == 200

    def test_connection_close_is_honored(self, live_gateway):
        async def scenario():
            async with AsgiHttpServer(live_gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n"
                )
                await writer.drain()
                payload = await reader.read()  # EOF: server closed it
                writer.close()
                return payload

        payload = self._run(scenario())
        assert payload.startswith(b"HTTP/1.1 200")
        assert b"connection: close" in payload.lower()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"NONSENSE\r\n\r\n",
            b"GET /v1/health HTTP/9.9\r\n\r\n",
            b"POST /v1/fft HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET /v1/health HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
        ],
        ids=["bad-request-line", "bad-version", "chunked-body", "bad-length"],
    )
    def test_malformed_framing_answers_400_and_closes(
        self, live_gateway, request_bytes
    ):
        async def scenario():
            async with AsgiHttpServer(live_gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(request_bytes)
                await writer.drain()
                payload = await reader.read()
                writer.close()
                return payload

        payload = self._run(scenario())
        assert payload.startswith(b"HTTP/1.1 400")

    def test_unconsumed_body_does_not_poison_keep_alive(self, live_gateway):
        # A body sent to a body-less route must be drained by the server
        # so the next request on the socket parses cleanly.
        async def scenario():
            async with AsgiHttpServer(live_gateway) as server:
                async with HttpClient("127.0.0.1", server.port) as client:
                    first = await client.request(
                        "GET", "/v1/health", body=b"x" * 4096
                    )
                    second = await client.request("GET", "/v1/health")
                    return first, second

        first, second = self._run(scenario())
        assert first.status == 200
        assert second.status == 200
