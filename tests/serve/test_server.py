"""FFTServer integration: correctness, policies, metrics, lifecycle."""

import hashlib
import time

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.jit import cc
from repro.obs.profiler import Profiler
from repro.serve import (
    AdmissionPolicy,
    CoalescePolicy,
    DeadlineExpiredError,
    DrainingError,
    FFTRequest,
    FFTServer,
    HealthPolicy,
    InfeasibleDeadlineError,
    QueueFullError,
    ServerClosedError,
    TenantQuotaError,
)
from repro.serve.chaos import reference_digests

BACKENDS = (
    "numpy",
    pytest.param(
        "cjit",
        marks=pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH"),
    ),
)


def _cubes(rng, n, count, shape=None):
    shape = shape or (n, n, n)
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        .astype(np.complex64)
        for _ in range(count)
    ]


@pytest.fixture
def sync_server():
    srv = FFTServer(
        start=False, coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0)
    )
    yield srv
    srv.close()


class TestDispatchCorrectness:
    def test_results_match_numpy(self, rng, sync_server):
        xs = _cubes(rng, 16, 6)
        futs = [sync_server.submit(FFTRequest(x)) for x in xs]
        sync_server.run_pending()
        for f, x in zip(futs, xs):
            ref = np.fft.fftn(x.astype(np.complex128))
            err = np.abs(f.result() - ref).max() / np.abs(ref).max()
            assert err < 2e-3

    def test_results_bit_identical_to_unserved_path(self, rng, sync_server):
        """The acceptance bit: serving must not perturb the math."""
        xs = _cubes(rng, 16, 5)
        futs = [sync_server.submit(FFTRequest(x, norm="ortho")) for x in xs]
        sync_server.run_pending()
        with GpuFFT3D((16, 16, 16), norm="ortho") as plan:
            for f, x in zip(futs, xs):
                assert np.array_equal(f.result(), plan.forward(x))

    def test_inverse_and_double_precision(self, rng, sync_server):
        x = _cubes(rng, 16, 1)[0].astype(np.complex128)
        fut = sync_server.submit(
            FFTRequest(x, precision="double", inverse=True)
        )
        sync_server.run_pending()
        ref = np.fft.ifftn(x)  # backward norm matches numpy's ifftn
        assert np.abs(fut.result() - ref).max() / np.abs(ref).max() < 1e-10

    def test_mixed_shapes_batch_separately(self, rng, sync_server):
        small = sync_server.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
        big = sync_server.submit(
            FFTRequest(_cubes(rng, 0, 1, shape=(32, 16, 16))[0])
        )
        small2 = sync_server.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
        sync_server.run_pending()
        assert small.batch_id == small2.batch_id
        assert big.batch_id != small.batch_id
        assert small.batch_size == 2
        assert big.batch_size == 1

    def test_singleton_dispatch_uses_single_plan(self, rng, sync_server):
        fut = sync_server.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
        sync_server.run_pending()
        assert fut.batch_size == 1
        key = fut.request.plan_key()
        assert (0, key) in sync_server._singles
        assert (0, key) not in sync_server._engines


class TestAdmission:
    def test_queue_full_sheds_with_typed_error(self, rng):
        with FFTServer(
            start=False,
            max_depth=3,
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
        ) as srv:
            xs = _cubes(rng, 16, 5)
            futs = []
            shed = 0
            for x in xs:
                try:
                    futs.append(srv.submit(FFTRequest(x)))
                except QueueFullError:
                    shed += 1
            assert shed == 2
            srv.run_pending()
            assert all(f.exception() is None for f in futs)
            s = srv.stats()
            assert s.rejected == {"queue_full": 2}
            assert s.completed == 3
            snap = srv.metrics.snapshot()["counters"]
            assert snap["serve.rejected{reason=queue_full}"]["value"] == 2

    def test_tenant_quota_enforced(self, rng):
        with FFTServer(
            start=False,
            admission=AdmissionPolicy(max_pending_per_tenant=2),
        ) as srv:
            xs = _cubes(rng, 16, 4)
            srv.submit(FFTRequest(xs[0], tenant="a"))
            srv.submit(FFTRequest(xs[1], tenant="a"))
            with pytest.raises(TenantQuotaError):
                srv.submit(FFTRequest(xs[2], tenant="a"))
            srv.submit(FFTRequest(xs[3], tenant="b"))
            assert srv.stats().rejected == {"tenant_quota": 1}

    def test_infeasible_deadline_rejected_at_submit(self, rng):
        with FFTServer(start=False) as srv:
            x = _cubes(rng, 16, 1)[0]
            with pytest.raises(InfeasibleDeadlineError):
                srv.submit(FFTRequest(x, deadline_s=1e-12))
            assert srv.stats().rejected == {"deadline_infeasible": 1}
            assert srv.queue.depth == 0


class TestDeadlines:
    def test_queued_past_deadline_dropped_typed_and_counted(self, rng):
        srv = FFTServer(
            start=False,
            admission=AdmissionPolicy(reject_infeasible_deadlines=False),
            coalesce=CoalescePolicy(max_batch=8, max_wait_s=0.0),
        )
        xs = _cubes(rng, 16, 3)
        # A generous-deadline request plus one whose budget only covers an
        # idle dispatch; burn device time first so the latter expires.
        burn = [srv.submit(FFTRequest(x)) for x in xs[:2]]
        solo_cost, _ = srv._cost(FFTRequest(xs[2]).plan_key())
        doomed = srv.submit(FFTRequest(xs[2], deadline_s=solo_cost * 1.01))
        srv.run_pending()  # first batch (all three?) — same key batches once
        # All three shared one batch: nothing expired, deadline met or not
        # by actual completion.  Force the expiry case with a fresh server.
        srv.close()

        srv2 = FFTServer(
            start=False,
            admission=AdmissionPolicy(reject_infeasible_deadlines=False),
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        )
        ys = _cubes(rng, 16, 2)
        first = [srv2.submit(FFTRequest(y)) for y in ys]  # fills batch 1
        cost, _ = srv2._cost(FFTRequest(ys[0]).plan_key())
        late = srv2.submit(FFTRequest(ys[0], deadline_s=cost * 0.9))
        srv2.run_pending()
        assert all(f.exception() is None for f in first)
        assert burn[0].exception() is None and doomed.done()
        assert isinstance(late.exception(), DeadlineExpiredError)
        s = srv2.stats()
        assert s.expired == 1
        assert (
            srv2.metrics.snapshot()["counters"]["serve.expired"]["value"] == 1
        )
        srv2.close()


class TestFairness:
    def test_flooding_tenant_cannot_starve_light_tenant(self, rng):
        with FFTServer(
            start=False, coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0)
        ) as srv:
            flood = [
                srv.submit(FFTRequest(x, tenant="loud"))
                for x in _cubes(rng, 16, 10)
            ]
            light = [
                srv.submit(FFTRequest(x, tenant="quiet"))
                for x in _cubes(rng, 16, 2)
            ]
            srv.run_pending()
            # Both quiet requests ride the first batch alongside the flood.
            assert {f.batch_id for f in light} == {0}
            assert sum(1 for f in flood if f.batch_id == 0) == 2

    def test_priority_preempts_fifo(self, rng):
        with FFTServer(
            start=False, coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0)
        ) as srv:
            normal = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 16, 3)]
            urgent = srv.submit(FFTRequest(_cubes(rng, 16, 1)[0], priority=9))
            srv.run_pending()
            assert urgent.batch_id == 0
            assert normal[2].batch_id == 1


class TestLifecycle:
    def test_submit_after_close_raises(self, rng):
        srv = FFTServer(start=False)
        srv.close()
        with pytest.raises(ServerClosedError):
            srv.submit(FFTRequest(_cubes(rng, 16, 1)[0]))

    def test_close_drains_queued_work(self, rng):
        srv = FFTServer(start=False)
        futs = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 16, 3)]
        srv.close()
        assert all(f.done() and f.exception() is None for f in futs)

    def test_close_discard_fails_queued_futures_typed(self, rng):
        srv = FFTServer(start=False)
        futs = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 16, 3)]
        srv.close(discard=True)
        assert all(isinstance(f.exception(), ServerClosedError) for f in futs)
        assert srv.stats().failed == 3

    def test_threaded_server_round_trip(self, rng):
        with FFTServer(
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.001)
        ) as srv:
            xs = _cubes(rng, 16, 8)
            futs = [srv.submit(FFTRequest(x)) for x in xs]
            assert srv.drain(timeout=30.0)
            for f, x in zip(futs, xs):
                ref = np.fft.fftn(x.astype(np.complex128))
                assert np.abs(f.result() - ref).max() / np.abs(ref).max() < 2e-3

    def test_engine_eviction_releases_buffers(self, rng):
        with FFTServer(
            start=False,
            max_resident_plans=1,
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
        ) as srv:
            for shape in ((16, 16, 16), (32, 16, 16)):
                for x in _cubes(rng, 0, 2, shape=shape):
                    srv.submit(FFTRequest(x))
            srv.run_pending()
            # Only the most recently used engine may still hold slots.
            warm = [e for e in srv._engines.values() if e.n_slots > 0]
            assert len(warm) <= 1

    def test_engine_eviction_clears_host_workspace(self, rng):
        """Cold engines give their workspace arena back, batch and single."""
        shapes = [(16, 16, 16), (32, 16, 16), (16, 32, 16), (16, 16, 32), (32, 32, 32)]
        with FFTServer(
            start=False,
            max_resident_plans=1,
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        ) as srv:
            for i, shape in enumerate(shapes):
                for x in _cubes(rng, 0, 1 + i % 2, shape=shape):
                    srv.submit(FFTRequest(x))
                srv.run_pending()
            engines = {**srv._singles, **srv._engines}
            assert len(engines) == len(shapes)
            assert any(isinstance(e, GpuFFT3D) for e in engines.values())
            hottest = max(srv._engine_use, key=srv._engine_use.get)
            for ekey, engine in engines.items():
                held = engine.workspace.stats.bytes_allocated
                if ekey == hottest:
                    assert held > 0
                else:
                    assert held == 0, (ekey, held)


class TestObservability:
    def test_profiler_captures_serve_metrics_and_spans(self, rng):
        with Profiler() as prof:
            with FFTServer(
                start=False,
                profiler=prof,
                coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
            ) as srv:
                for x in _cubes(rng, 16, 4):
                    srv.submit(FFTRequest(x, tenant="t"))
                srv.run_pending()
            snap = prof.snapshot()["counters"]
            assert snap["serve.submitted"]["value"] == 4
            assert snap["serve.completed"]["value"] == 4
            assert snap["serve.completed{tenant=t}"]["value"] == 4
            assert snap["serve.batches"]["value"] == 1
            hist = prof.metrics.histogram("serve.latency.seconds", "s")
            assert hist.count == 4
            # Dispatched device work is traced with the serve batch tag.
            tagged = [
                s
                for s in prof.tracer.spans()
                if dict(s.tags).get("serve_batch") == 0
            ]
            assert tagged

    def test_per_batch_fault_recovery_keeps_results_correct(self, rng):
        inj = FaultInjector(
            [
                FaultSpec("transfer-fail", rate=0.2),
                FaultSpec("launch-fail", rate=0.1),
            ],
            seed=99,
        )
        with FFTServer(
            start=False,
            fault_injector=inj,
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
        ) as srv:
            xs = _cubes(rng, 16, 6)
            futs = [srv.submit(FFTRequest(x)) for x in xs]
            srv.run_pending()
            for f, x in zip(futs, xs):
                ref = np.fft.fftn(x.astype(np.complex128))
                assert np.abs(f.result() - ref).max() / np.abs(ref).max() < 2e-3
            report = srv.resilience_report()
            assert report.attempts > 0
            assert report.total_retries > 0


class TestParallelWorkers:
    """The n_workers pool: per-card engines, consistent accounting."""

    def test_default_is_single_worker(self):
        with FFTServer(start=False) as srv:
            assert srv.n_workers == 1
            assert srv._pool is None
            assert len(srv._sims) == 1
            assert srv._sims[0] is srv.simulator

    def test_single_injector_splits_per_worker(self):
        # A shared injector no longer raises: it is split into
        # independently seeded per-worker children carrying its specs.
        inj = FaultInjector([FaultSpec("transfer-fail", at_ops=(1,))], seed=5)
        with FFTServer(start=False, n_workers=2, fault_injector=inj) as srv:
            assert len(srv._injectors) == 2
            assert srv._injectors[0] is not inj
            assert srv._injectors[0] is not srv._injectors[1]
            seeds = {child.seed for child in srv._injectors}
            assert len(seeds) == 2  # independent fault streams
        with pytest.raises(ValueError, match="n_workers"):
            FFTServer(start=False, n_workers=0)

    def test_injector_list_must_match_worker_count(self):
        injs = [FaultInjector([], seed=i) for i in range(3)]
        with pytest.raises(ValueError, match="per worker"):
            FFTServer(start=False, n_workers=2, fault_injector=injs)
        with FFTServer(
            start=False, n_workers=3, fault_injector=injs
        ) as srv:
            assert srv._injectors == injs

    def test_batches_spread_across_workers(self):
        rng = np.random.default_rng(9)
        shapes = [(16, 16, 16), (32, 16, 16), (16, 32, 16), (16, 16, 32)]
        with FFTServer(
            start=False,
            n_workers=4,
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
        ) as srv:
            futs = []
            for shape in shapes:
                for x in _cubes(rng, 0, 4, shape=shape):
                    futs.append(srv.submit(FFTRequest(x)))
            srv.run_pending()
            outs = [f.result(timeout=30) for f in futs]
        # Results match the standalone plan regardless of worker choice.
        for f, out in zip(futs, outs):
            with GpuFFT3D(f.request.shape, precision="single") as plan:
                assert np.array_equal(out, plan.forward(f.request.x))
        workers = {f.worker for f in futs}
        assert len(workers) > 1  # four keys, four cards: work spread out
        stats = srv.stats()
        assert set(stats.worker_elapsed_s) == {0, 1, 2, 3}
        assert sum(1 for v in stats.worker_elapsed_s.values() if v > 0) >= len(
            workers
        )

    def test_threaded_dispatcher_with_workers(self):
        rng = np.random.default_rng(10)
        with FFTServer(
            start=True,
            n_workers=2,
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        ) as srv:
            futs = [
                srv.submit(FFTRequest(x)) for x in _cubes(rng, 16, 6)
            ]
            assert srv.drain(timeout=30)
            for f in futs:
                assert f.result(timeout=30).shape == (16, 16, 16)
            assert srv.stats().completed == 6

    def test_worker_metrics_recorded(self):
        rng = np.random.default_rng(11)
        prof = Profiler()
        with FFTServer(
            start=False,
            n_workers=2,
            profiler=prof,
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        ) as srv:
            for x in _cubes(rng, 16, 4):
                srv.submit(FFTRequest(x))
            srv.run_pending()
            snap = prof.metrics.snapshot()
        worker_counters = [
            k for k in snap["counters"] if "serve.batches{worker=" in k
        ]
        assert worker_counters  # per-worker batch accounting present
        prof.close()


class TestResilientDispatch:
    """Health-gated dispatch: worker loss, re-queue, operator ejection."""

    def _loss_pair(self):
        # Worker 1 loses its card on its very first kernel launch.
        return [
            FaultInjector([], seed=11),
            FaultInjector(
                [FaultSpec("device-lost", at_ops=(0,), category="launch")],
                seed=12,
            ),
        ]

    def test_worker_loss_requeues_to_survivor(self, rng):
        xs = _cubes(rng, 16, 4)
        with FFTServer(
            start=False,
            n_workers=2,
            serial_dispatch=True,
            fault_injector=self._loss_pair(),
            health=HealthPolicy(),
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        ) as srv:
            futs = [srv.submit(FFTRequest(x)) for x in xs]
            srv.run_pending()
            assert all(f.done() and f.exception() is None for f in futs)
            for f, x in zip(futs, xs):
                ref = np.fft.fftn(x.astype(np.complex128))
                assert np.abs(f.result() - ref).max() / np.abs(ref).max() < 2e-3
            # The dead worker's batch crossed to the survivor, flagged.
            assert srv.stats().requeued == 2
            assert sum(f.requeues for f in futs) == 2
            assert all(f.faulted for f in futs if f.requeues)
            assert any(
                t.reason == "DeviceLostError" for t in srv.health.transitions
            )
            assert srv.health.states()[1] == "ejected"

    def test_requeue_rechecks_deadline_feasibility(self, rng):
        """A re-queued request whose deadline can no longer be met gets
        the same typed rejection the admission check uses."""
        from repro.gpu.faults import FaultError

        with FFTServer(
            start=False,
            n_workers=2,
            serial_dispatch=True,
            health=HealthPolicy(),
            coalesce=CoalescePolicy(max_batch=1, max_wait_s=0.0),
        ) as srv:
            fut = srv.submit(
                FFTRequest(_cubes(rng, 16, 1)[0], deadline_s=5.0)
            )
            key = srv.queue.keys()[0]
            (ticket,) = srv.queue.tickets(key)
            srv.queue.remove_many(key, [ticket])
            # The front clock moves past the deadline while the batch is
            # out on a worker that then dies.
            srv.simulator.charge("test:clock-advance", 6.0, "host")
            srv._requeue_batch(1, [ticket], FaultError("injected loss"), set())
            assert isinstance(fut.exception(), InfeasibleDeadlineError)
            assert srv.stats().expired == 1
            dropped = srv.metrics.counter(
                "serve.requeue.dropped", "requests", {"reason": "deadline"}
            )
            assert dropped.value == 1

    def test_health_takes_only_a_policy(self):
        with pytest.raises(TypeError, match="HealthPolicy"):
            FFTServer(start=False, health=False)

    def test_eject_worker_validates(self, rng):
        with FFTServer(start=False, n_workers=2, serial_dispatch=True) as srv:
            with pytest.raises(ValueError, match="no such worker"):
                srv.eject_worker(7)
            srv.eject_worker(1, reason="test")
            assert srv.health.states()[1] == "ejected"
            # Work still completes on the remaining worker.
            fut = srv.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
            srv.run_pending()
            assert fut.exception() is None and fut.worker == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_worker_ejected_runs_on_the_host_with_fault_free_bits(
        self, rng, backend
    ):
        # With no card admissible every batch runs in "host" mode: the
        # engine's own plan on the host, so the bytes are the fault-free
        # reference's even though each result is marked faulted.
        kinds = [(n, inv) for n in ("backward", "ortho", "forward") for inv in (0, 1)]
        xs = _cubes(rng, 16, 6) + _cubes(rng, 16, 6, shape=(32, 16, 16))
        reqs = [
            FFTRequest(x, norm=n, inverse=bool(inv))
            for x, (n, inv) in zip(xs, kinds * 2)
        ]
        with FFTServer(
            start=False,
            n_workers=2,
            serial_dispatch=True,
            backend=backend,
            health=HealthPolicy(cooldown_dispatches=100),  # no probe re-admits
            coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
        ) as srv:
            for wid in range(2):
                srv.eject_worker(wid, reason="test")
            futs = [srv.submit(r) for r in reqs]
            srv.run_pending()
            forced = sum(
                w["forced_host_batches"] for w in srv.health.snapshot().values()
            )
            downgrades = srv.resilience_report().downgrades
        assert forced > 0
        assert set(downgrades) == {"host-fallback: forced"}
        assert all(f.faulted for f in futs)
        digests = [
            hashlib.sha256(np.ascontiguousarray(f.result()).tobytes()).hexdigest()
            for f in futs
        ]
        assert digests == reference_digests(reqs)


class TestDrainAndClose:
    """Graceful quiesce and the never-strand-a-future guarantee."""

    def test_drain_rejects_submissions_with_typed_error(self, rng):
        import threading

        with FFTServer(
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0)
        ) as srv:
            futs = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 32, 40)]
            drained = []
            t = threading.Thread(target=lambda: drained.append(srv.drain()))
            t.start()
            deadline = time.monotonic() + 5.0
            while not srv._draining and time.monotonic() < deadline:
                pass
            assert srv._draining, "drain window never opened"
            with pytest.raises(DrainingError):
                srv.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
            t.join()
            assert drained == [True]
            assert all(f.done() and f.exception() is None for f in futs)
            assert srv.stats().rejected.get("draining") == 1
            # Admission reopens once the drain completes.
            late = srv.submit(FFTRequest(_cubes(rng, 16, 1)[0]))
            assert srv.drain(timeout=30.0)
            assert late.exception() is None

    def test_close_mid_flight_never_strands_futures(self, rng):
        srv = FFTServer(coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0))
        futs = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 32, 24)]
        # Batches are in flight on the dispatcher thread right now.
        srv.close(discard=True)
        assert all(f.done() for f in futs)
        completed = sum(1 for f in futs if f.exception() is None)
        closed = sum(
            1 for f in futs if isinstance(f.exception(), ServerClosedError)
        )
        assert completed + closed == len(futs)

    def test_close_with_dying_worker_resolves_everything(self, rng):
        injs = [
            FaultInjector([], seed=21),
            FaultInjector(
                [FaultSpec("device-lost", at_ops=(0,), category="launch")],
                seed=22,
            ),
        ]
        srv = FFTServer(
            start=False,
            n_workers=2,
            serial_dispatch=True,
            fault_injector=injs,
            health=HealthPolicy(),
            coalesce=CoalescePolicy(max_batch=2, max_wait_s=0.0),
        )
        futs = [srv.submit(FFTRequest(x)) for x in _cubes(rng, 16, 6)]
        srv.close()  # default close drains: re-queued work still lands
        assert all(f.done() for f in futs)
        assert all(
            f.exception() is None
            or isinstance(f.exception(), ServerClosedError)
            for f in futs
        )
        assert sum(1 for f in futs if f.exception() is None) >= 4
