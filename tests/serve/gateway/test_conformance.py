"""Shed-path conformance: every ErrorCode pinned to its wire behavior.

Satellite 3 of the gateway PR: one scenario per entry in the error
taxonomy, each asserting the full (HTTP status, machine-readable code,
Retry-After presence) triple from :mod:`repro.serve.codes`.  A registry
decorator tracks which codes have a scenario; the completeness tests at
the bottom fail the build if a new code (or a new ServeError subclass)
ships without extending this matrix.
"""

import asyncio
import json

import pytest

from repro.gpu.faults import FaultInjector, FaultSpec
from repro.serve import (
    HTTP_STATUS,
    REJECTION_TAXONOMY,
    RETRY_AFTER,
    AdmissionPolicy,
    CoalescePolicy,
    ErrorBody,
    ErrorCode,
    FFTServer,
    Gateway,
    GatewayPolicy,
    HealthPolicy,
    RejectedError,
    ServeError,
    StatusBody,
    asgi_request,
    http_status,
    needs_retry_after,
)
from tests.serve.gateway.conftest import TENANT, http, submit_bytes

#: Codes a scenario in this module has asserted the full triple for.
COVERED: set[ErrorCode] = set()


def covers(*codes: ErrorCode):
    """Register ``codes`` as conformance-tested by the decorated test."""

    def register(fn):
        COVERED.update(codes)
        return fn

    return register


def assert_error(resp, code: ErrorCode):
    """One rejection checked against the whole wire contract for ``code``."""
    assert resp.status == http_status(code), (
        f"{code}: expected HTTP {http_status(code)}, got {resp.status}"
    )
    body = ErrorBody.parse(resp.body)
    assert body.code is code
    assert body.message
    retry = resp.header("retry-after")
    if needs_retry_after(code):
        assert retry is not None, f"{code}: Retry-After header missing"
        assert int(retry) >= 1
        assert body.retry_after_s is not None and body.retry_after_s > 0
    else:
        assert retry is None, f"{code}: spurious Retry-After header"
        assert body.retry_after_s is None


class TestAdmissionSheds:
    @covers(ErrorCode.QUEUE_FULL)
    def test_queue_full_is_429(self):
        with FFTServer(start=False, max_depth=1) as srv:
            gw = Gateway(srv)
            raw, _ = submit_bytes()
            assert http(gw, "POST", "/v1/fft", TENANT, raw).status == 202
            assert_error(
                http(gw, "POST", "/v1/fft", TENANT, raw), ErrorCode.QUEUE_FULL
            )

    @covers(ErrorCode.TENANT_QUOTA)
    def test_tenant_quota_is_429_per_tenant(self):
        with FFTServer(
            start=False, admission=AdmissionPolicy(max_pending_per_tenant=1)
        ) as srv:
            gw = Gateway(srv)
            raw, _ = submit_bytes()
            assert http(gw, "POST", "/v1/fft", TENANT, raw).status == 202
            assert_error(
                http(gw, "POST", "/v1/fft", TENANT, raw),
                ErrorCode.TENANT_QUOTA,
            )
            # Another identity is not throttled by this tenant's quota.
            other = {"x-tenant": "other-tenant"}
            assert http(gw, "POST", "/v1/fft", other, raw).status == 202

    @covers(ErrorCode.DEADLINE_INFEASIBLE)
    def test_infeasible_deadline_is_400(self, sync_gateway):
        raw, _ = submit_bytes(deadline_s=1e-12)
        assert_error(
            http(sync_gateway, "POST", "/v1/fft", TENANT, raw),
            ErrorCode.DEADLINE_INFEASIBLE,
        )

    @covers(ErrorCode.DRAINING)
    def test_drain_lifecycle_healthy_to_draining_and_back(self, sync_server):
        gw = Gateway(sync_server)
        raw, _ = submit_bytes()
        assert http(gw, "GET", "/v1/health").status == 200
        sync_server.begin_drain()
        assert_error(
            http(gw, "POST", "/v1/fft", TENANT, raw), ErrorCode.DRAINING
        )
        assert_error(http(gw, "GET", "/v1/health"), ErrorCode.DRAINING)
        sync_server.end_drain()
        assert http(gw, "GET", "/v1/health").status == 200
        assert http(gw, "POST", "/v1/fft", TENANT, raw).status == 202

    @covers(ErrorCode.SERVER_CLOSED)
    def test_closed_server_is_503(self):
        srv = FFTServer(start=False)
        gw = Gateway(srv)
        srv.close()
        raw, _ = submit_bytes()
        assert_error(
            http(gw, "POST", "/v1/fft", TENANT, raw), ErrorCode.SERVER_CLOSED
        )
        assert_error(http(gw, "GET", "/v1/health"), ErrorCode.SERVER_CLOSED)


class TestPostAdmissionFailures:
    @covers(ErrorCode.DEADLINE_EXPIRED)
    def test_queue_expiry_surfaces_as_504(self):
        # Batch-of-one coalescing: the burn request advances the device
        # clock past the doomed request's (unrejectable) deadline.
        with FFTServer(
            start=False,
            admission=AdmissionPolicy(reject_infeasible_deadlines=False),
            coalesce=CoalescePolicy(max_batch=1, max_wait_s=0.0),
        ) as srv:
            gw = Gateway(srv)
            burn, _ = submit_bytes(seed=1)
            doomed, _ = submit_bytes(seed=2, deadline_s=1e-9)
            assert http(gw, "POST", "/v1/fft", TENANT, burn).status == 202
            accepted = http(gw, "POST", "/v1/fft", TENANT, doomed)
            assert accepted.status == 202
            job_id = json.loads(accepted.body)["job_id"]
            srv.run_pending()
            status = http(gw, "GET", f"/v1/jobs/{job_id}")
            assert status.status == 200
            parsed = StatusBody.parse(status.body)
            assert parsed.state == "failed"
            assert parsed.error_code == "deadline_expired"
            assert_error(
                http(gw, "GET", f"/v1/jobs/{job_id}/result"),
                ErrorCode.DEADLINE_EXPIRED,
            )

    @covers(ErrorCode.DEADLINE_EXPIRED)
    def test_wait_timeout_is_504_with_pollable_job(self, sync_server):
        # The sync server never dispatches on its own, so /wait times out;
        # the job survives and stays pollable via the echoed id.
        gw = Gateway(sync_server, policy=GatewayPolicy(wait_timeout_s=0.05))
        raw, _ = submit_bytes()
        resp = http(gw, "POST", "/v1/fft/wait", TENANT, raw)
        assert_error(resp, ErrorCode.DEADLINE_EXPIRED)
        job_id = resp.header("x-fft-job")
        assert job_id is not None
        assert http(gw, "GET", f"/v1/jobs/{job_id}").status == 200

    @covers(ErrorCode.REQUEUE_EXHAUSTED)
    def test_requeue_budget_exhaustion_is_503(self):
        inj = FaultInjector(
            [FaultSpec("device-lost", at_ops=(0,), category="launch")], seed=7
        )
        with FFTServer(
            start=False,
            fault_injector=inj,
            health=HealthPolicy(max_requeues=0),
        ) as srv:
            gw = Gateway(srv)
            raw, _ = submit_bytes()
            accepted = http(gw, "POST", "/v1/fft", TENANT, raw)
            assert accepted.status == 202
            job_id = json.loads(accepted.body)["job_id"]
            srv.run_pending()
            status = StatusBody.parse(http(gw, "GET", f"/v1/jobs/{job_id}").body)
            assert status.state == "failed"
            assert status.faulted
            assert status.error_code == "requeue_exhausted"
            assert_error(
                http(gw, "GET", f"/v1/jobs/{job_id}/result"),
                ErrorCode.REQUEUE_EXHAUSTED,
            )

    @covers(ErrorCode.RESULT_PENDING)
    def test_unresolved_result_is_409(self, sync_gateway, sync_server):
        raw, _ = submit_bytes()
        accepted = http(sync_gateway, "POST", "/v1/fft", TENANT, raw)
        job_id = json.loads(accepted.body)["job_id"]
        assert_error(
            http(sync_gateway, "GET", f"/v1/jobs/{job_id}/result"),
            ErrorCode.RESULT_PENDING,
        )
        sync_server.run_pending()
        assert (
            http(sync_gateway, "GET", f"/v1/jobs/{job_id}/result").status == 200
        )


class TestGatewayMintedCodes:
    @covers(ErrorCode.BAD_REQUEST)
    def test_malformed_body_is_400(self, sync_gateway):
        assert_error(
            http(sync_gateway, "POST", "/v1/fft", TENANT, b"{not json"),
            ErrorCode.BAD_REQUEST,
        )

    @covers(ErrorCode.PAYLOAD_TOO_LARGE)
    def test_oversized_body_is_413_at_the_asgi_layer(self, sync_server):
        gw = Gateway(sync_server, policy=GatewayPolicy(max_body_bytes=64))
        raw, _ = submit_bytes()
        assert len(raw) > 64
        assert_error(
            http(gw, "POST", "/v1/fft", TENANT, raw),
            ErrorCode.PAYLOAD_TOO_LARGE,
        )

    @covers(ErrorCode.PAYLOAD_TOO_LARGE)
    def test_oversized_declared_shape_is_413_at_the_wire_layer(
        self, sync_server
    ):
        # A tiny body declaring a huge shape: the wire check fires on the
        # declared geometry, not the transferred bytes.
        gw = Gateway(sync_server, policy=GatewayPolicy(max_body_bytes=1 << 20))
        raw, _ = submit_bytes()
        bad = raw.replace(b"[16, 16, 16]", b"[1024, 1024, 1024]")
        assert_error(
            http(gw, "POST", "/v1/fft", TENANT, bad),
            ErrorCode.PAYLOAD_TOO_LARGE,
        )

    @covers(ErrorCode.PAYLOAD_TOO_LARGE)
    def test_overflowing_declared_shape_is_413_not_500(self, sync_gateway):
        # 2**120 points wrap to 0 bytes in int64 arithmetic, which would
        # pass the bound and fail later as an untyped 500 `internal`.
        bad = json.dumps({"shape": [2**40] * 3, "data_b64": ""}).encode()
        assert_error(
            http(sync_gateway, "POST", "/v1/fft", TENANT, bad),
            ErrorCode.PAYLOAD_TOO_LARGE,
        )

    @covers(ErrorCode.UNAUTHENTICATED)
    def test_missing_identity_is_401(self, sync_gateway):
        raw, _ = submit_bytes()
        assert_error(
            http(sync_gateway, "POST", "/v1/fft", None, raw),
            ErrorCode.UNAUTHENTICATED,
        )

    @covers(ErrorCode.NOT_FOUND)
    def test_unknown_route_and_unknown_job_are_404(self, sync_gateway):
        assert_error(
            http(sync_gateway, "GET", "/v1/nope"), ErrorCode.NOT_FOUND
        )
        assert_error(
            http(sync_gateway, "GET", "/v1/jobs/j-never-issued"),
            ErrorCode.NOT_FOUND,
        )

    @covers(ErrorCode.METHOD_NOT_ALLOWED)
    def test_wrong_method_is_405(self, sync_gateway):
        resp = http(sync_gateway, "DELETE", "/v1/fft")
        assert_error(resp, ErrorCode.METHOD_NOT_ALLOWED)
        assert "POST" in ErrorBody.parse(resp.body).message

    @covers(ErrorCode.GATEWAY_OVERLOAD)
    def test_overload_sheds_429_before_buffering(self, sync_server):
        gw = Gateway(sync_server, policy=GatewayPolicy(max_inflight=1))
        raw, _ = submit_bytes()

        async def scenario():
            # Park one /wait request in flight (the sync server only
            # dispatches when driven), then submit into the full gateway.
            waiter = asyncio.ensure_future(
                asgi_request(gw, "POST", "/v1/fft/wait", TENANT, raw)
            )
            while gw._inflight < 1:
                await asyncio.sleep(0.001)
            shed = await asgi_request(gw, "POST", "/v1/fft", TENANT, raw)
            sync_server.run_pending()
            return shed, await waiter

        shed, completed = asyncio.run(scenario())
        assert_error(shed, ErrorCode.GATEWAY_OVERLOAD)
        assert completed.status == 200
        counters = sync_server.metrics.snapshot()["counters"]
        assert counters["gateway.shed{reason=overload}"]["value"] == 1

    @covers(ErrorCode.UNHEALTHY)
    def test_no_dispatchable_worker_is_503_on_health(self, sync_server):
        gw = Gateway(sync_server)
        sync_server.eject_worker(0, reason="conformance")
        assert_error(http(gw, "GET", "/v1/health"), ErrorCode.UNHEALTHY)

    @covers(ErrorCode.REJECTED, ErrorCode.SERVE_ERROR, ErrorCode.INTERNAL)
    def test_exception_projection_covers_the_base_classes(
        self, sync_gateway, monkeypatch
    ):
        # The base taxonomy members are never raised directly by the
        # server; pin their projection by raising them at the boundary.
        raw, _ = submit_bytes()
        for exc, code in [
            (RejectedError("refused"), ErrorCode.REJECTED),
            (ServeError("wedged"), ErrorCode.SERVE_ERROR),
            (ValueError("surprise"), ErrorCode.INTERNAL),
        ]:
            monkeypatch.setattr(
                sync_gateway.server,
                "submit",
                lambda request, _exc=exc: (_ for _ in ()).throw(_exc),
            )
            assert_error(
                http(sync_gateway, "POST", "/v1/fft", TENANT, raw), code
            )


class TestTaxonomyCompleteness:
    def test_every_code_has_a_conformance_scenario(self):
        assert COVERED == set(ErrorCode), (
            f"codes without a conformance scenario: "
            f"{sorted(set(ErrorCode) - COVERED)}"
        )

    def test_serve_exceptions_match_the_wire_taxonomy(self):
        def walk(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from walk(sub)

        reasons = {cls.reason for cls in walk(ServeError)}
        assert reasons == set(REJECTION_TAXONOMY)

    def test_status_map_is_total_and_sane(self):
        assert set(HTTP_STATUS) == set(ErrorCode)
        assert all(400 <= s <= 599 for s in HTTP_STATUS.values())
        assert RETRY_AFTER <= set(ErrorCode)
        # Pressure codes clients may retry are 429/503; the two
        # explicitly non-retryable refusals keep their distinct classes.
        for code in RETRY_AFTER - {ErrorCode.RESULT_PENDING}:
            assert HTTP_STATUS[code] in (429, 503)
        assert HTTP_STATUS[ErrorCode.SERVER_CLOSED] == 503
        assert ErrorCode.SERVER_CLOSED not in RETRY_AFTER
        assert HTTP_STATUS[ErrorCode.DEADLINE_EXPIRED] == 504

    def test_enum_members_behave_as_their_slugs(self):
        for code in ErrorCode:
            assert str(code) == code.value
            assert f"{code}" == code.value
            assert code == code.value
            assert hash(code) == hash(code.value)
