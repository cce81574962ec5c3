"""The four benchmark workloads: seeded inputs, system, timed loop, checks.

Every workload follows the same life cycle, driven by ``run.py``:

1. ``make_inputs()`` derives every input from the seed (pure NumPy; the
   program under test only ever sees these generated arrays/bodies).
2. ``setup()`` constructs the system and returns ``(seconds, digest)``:
   the wall time from construction to the first result in hand, and a
   CRC of that result so set-up runs in other processes can be checked
   against this one bit for bit.
3. ``run(seconds)`` is the timed phase.  Results are checked outside the
   timed intervals (or, for the threaded serving loops, retained as a
   seeded sample and checked afterwards).
4. ``verify()`` runs the float64 oracle checks and returns a list of
   violations (empty when every checked output is correct).
5. ``metrics()`` returns the end-to-end metrics as
   ``{name: (value, unit, samples)}``.

Every workload measures the ``cjit`` backend; ``run.py`` fails the run if
any plan resolved to another backend.
"""

from __future__ import annotations

import asyncio
import json
import math
import queue
import resource
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core import GpuFFT3D
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.serve import (
    AsgiHttpServer,
    CoalescePolicy,
    FFTRequest,
    FFTServer,
    Gateway,
    HealthPolicy,
    HttpClient,
    RejectedError,
    SubmitBody,
    decode_array,
)
from repro.util.units import flops_3d_fft

__all__ = ["WORKLOADS", "SINGLE_PRECISION_BOUND", "rel_l2", "crc", "peak_rss_mb"]

BACKEND = "cjit"

#: Relative L2 bound for single precision against the float64 oracle
#: (DESIGN.md §17: 2e-5 single / 5e-13 double).
SINGLE_PRECISION_BOUND = 2e-5

#: Fault counts of earlier chaos_serve runs in this checkout, per seed.
FINGERPRINTS = Path(__file__).resolve().parent / "out" / "chaos_counts.json"

#: Serving results kept for the float64 check: one request in this many,
#: chosen by the seeded request stream, up to MAX_SAMPLES per run (a
#: fixed count keeps the retained copies from scaling peak RSS with
#: throughput).
SAMPLE_ONE_IN = 16
MAX_SAMPLES = 48


def rel_l2(out: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 error of ``out`` against the float64 ``ref``.

    Works slab by slab along axis 0 so a 256³ check needs no full-size
    complex128 temporary.
    """
    num = den = 0.0
    for i in range(0, out.shape[0], 16):
        r = ref[i : i + 16]
        d = out[i : i + 16].astype(np.complex128) - r
        num += float(np.vdot(d, d).real)
        den += float(np.vdot(r, r).real)
    return math.sqrt(num / den)


def crc(a: np.ndarray) -> int:
    """CRC32 of an array's bytes (C order)."""
    return zlib.crc32(np.ascontiguousarray(a).data)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def grid(rng: np.random.Generator, shape) -> np.ndarray:
    """A complex64 grid of standard-normal real and imaginary parts."""
    shape = tuple(shape)
    return (
        rng.standard_normal((*shape, 2), dtype=np.float32)
        .view(np.complex64)
        .reshape(shape)
    )


def reference(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The float64 oracle: ``numpy.fft.fftn``/``ifftn`` of ``x``."""
    x64 = x.astype(np.complex128)
    return np.fft.ifftn(x64) if inverse else np.fft.fftn(x64)


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def flops(shape) -> float:
    nz, ny, nx = shape
    return flops_3d_fft(nx, ny, nz)


class Workload:
    """Shared bookkeeping for the end-to-end metrics."""

    name = ""
    #: Grid shapes the workload sends, with their share of requests
    #: (used by the traced run's per-layer probes).
    shapes: tuple = ()
    #: The timed phase is cut into this many windows; rates and latency
    #: percentiles are medians over the windows, so a burst from another
    #: tenant on the shared host moves at most one of them.
    WINDOWS = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.flops_done = 0.0
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.errors: list[float] = []
        self.violations: list[str] = []
        self.sim_seconds = 0.0
        self.rss_mb = 0.0

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, stream]))

    def windows(self) -> list[tuple[float, list[tuple[float, float]]]]:
        """The timed phase as ``WINDOWS`` pieces of ``(seconds, [(flops,
        latency), ...])``, one entry per completed request."""
        raise NotImplementedError

    def rates(self) -> tuple[float, float, float, float]:
        """``(requests/s, GFLOP/s, p50 ms, p90 ms)``, medians over windows."""
        med = statistics.median
        wins = [(sec, items) for sec, items in self.windows() if items]
        return (
            med(len(items) / sec for sec, items in wins),
            med(sum(fl for fl, _ in items) / sec / 1e9 for sec, items in wins),
            med(percentile_ms([lat for _, lat in items], 50) for _, items in wins),
            med(percentile_ms([lat for _, lat in items], 90) for _, items in wins),
        )

    def metrics(self) -> dict[str, tuple[float, str, int]]:
        rps, gflops, p50, p90 = self.rates()
        n = len(self.latencies)
        return {
            "throughput_rps": (rps, "1/s", self.completed),
            "host_gflops": (gflops, "GFLOP/s", self.completed),
            "latency_p50_ms": (p50, "ms", n),
            "latency_p90_ms": (p90, "ms", n),
            "success_fraction": (
                (self.completed - self.failed_checks()) / self.attempted,
                "fraction",
                self.attempted,
            ),
            "rel_l2_error_max": (max(self.errors), "ratio", len(self.errors)),
            "peak_rss_mb": (self.rss_mb, "MB", 1),
            "sim_gflops": (self.flops_done / self.sim_seconds / 1e9, "GFLOP/s", self.completed),
        }

    def failed_checks(self) -> int:
        """Completed results that failed a correctness check."""
        return 0

    def prepare_checks(self) -> None:
        """Build references that need the program (after set-up)."""

    def fault_counts(self) -> dict:
        """Counts that must repeat exactly for a seed (none by default)."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fft256: the paper's headline transform
# ----------------------------------------------------------------------


class Fft256(Workload):
    """Closed loop, one transform outstanding, forward/inverse alternating."""

    name = "fft256"
    SHAPE = (256, 256, 256)
    shapes = ((SHAPE, 1.0),)
    #: Distinct outputs kept per direction; the engine is deterministic,
    #: so one is expected and every repeat is checked by bit equality.
    MAX_DISTINCT = 2

    def make_inputs(self) -> None:
        self.a = grid(self.rng(1), self.SHAPE)
        self.b = grid(self.rng(2), self.SHAPE)

    def setup(self, profiler=None) -> tuple[float, int]:
        t0 = time.perf_counter()
        self.plan = GpuFFT3D(
            self.SHAPE, precision="single", backend=BACKEND, profiler=profiler
        )
        out = self.plan.forward(self.a)
        setup_s = time.perf_counter() - t0
        self.kept: dict[bool, list[np.ndarray]] = {False: [out], True: []}
        self.unmatched = 0
        return setup_s, crc(out)

    def run(self, seconds: float, spans=None) -> None:
        plan = self.plan
        sim0 = plan.simulator.elapsed
        k = 0
        while self.wall_s < seconds or k < 2:  # at least one per direction
            inverse = k % 2 == 0  # set-up ran forward(a); alternate from there
            x = self.b if inverse else self.a
            t0 = time.perf_counter()
            out = plan.inverse(x) if inverse else plan.forward(x)
            dt = time.perf_counter() - t0
            if spans is not None:
                spans.add("api.inverse" if inverse else "api.forward", t0, dt)
            self.wall_s += dt
            self.latencies.append(dt)
            self.attempted += 1
            self.completed += 1
            self.flops_done += flops(self.SHAPE)
            self._keep(out, inverse)
            k += 1
        self.sim_seconds = plan.simulator.elapsed - sim0
        self.rss_mb = peak_rss_mb()

    def rates(self) -> tuple[float, float, float, float]:
        # Inverse transforms are slower than forward ones, so the pooled
        # latencies are bimodal and their percentiles jump between the
        # modes; each percentile is taken per direction and averaged.
        # Transforms run one at a time, so the rate is the inverse of the
        # median transform time: one transform slowed by another tenant
        # on the shared memory bus does not move it.
        by_dir = (self.latencies[1::2], self.latencies[0::2])
        p50, p90 = (
            statistics.fmean(percentile_ms(lat, q) for lat in by_dir) for q in (50, 90)
        )
        rps = 1e3 / p50
        return rps, rps * flops(self.SHAPE) / 1e9, p50, p90

    def _keep(self, out: np.ndarray, inverse: bool) -> None:
        kept = self.kept[inverse]
        if any(np.array_equal(out, k) for k in kept):
            return
        if len(kept) < self.MAX_DISTINCT:
            kept.append(out)
        else:
            self.unmatched += 1

    def failed_checks(self) -> int:
        return self.unmatched

    def verify(self) -> list[str]:
        self.plan.close()
        del self.plan
        for inverse, x in ((False, self.a), (True, self.b)):
            ref = reference(x, inverse)
            self.errors += [rel_l2(out, ref) for out in self.kept[inverse]]
            del ref
        if self.unmatched:
            self.violations.append(
                f"{self.unmatched} transforms produced more than "
                f"{self.MAX_DISTINCT} distinct outputs per direction"
            )
        bad = [e for e in self.errors if not e <= SINGLE_PRECISION_BOUND]
        if bad:
            self.violations.append(f"relative L2 errors {bad} exceed the bound")
        return self.violations


# ----------------------------------------------------------------------
# Serving workloads: a seeded request stream over a pool of grids
# ----------------------------------------------------------------------


class _Stream(Workload):
    """A seeded request stream over a pool of distinct input grids."""

    POOL_PER_SHAPE = 16
    #: Untimed closed-loop seconds before the timed phase, so lazily
    #: built engines, plans and pools are in place when timing starts.
    WARMUP_S = 1.0
    STREAM_LEN = 1 << 17
    TENANTS = tuple(f"tenant{i}" for i in range(8))

    def make_inputs(self) -> None:
        rng = self.rng(3)
        self.pool = [
            (shape, grid(rng, shape))
            for shape, _ in self.shapes
            for _ in range(self.POOL_PER_SHAPE)
        ]
        rng = self.rng(4)
        self.order = rng.integers(len(self.pool), size=self.STREAM_LEN)
        self.tenant_of = rng.integers(len(self.TENANTS), size=self.STREAM_LEN)
        self.sampled = rng.integers(SAMPLE_ONE_IN, size=self.STREAM_LEN) == 0
        self.samples: list[tuple[int, np.ndarray]] = []
        self.records: list[tuple[float, float, float]] = []
        self.wrong = 0

    def request(self, i: int) -> FFTRequest:
        j = i % self.STREAM_LEN
        return FFTRequest(
            self.pool[self.order[j]][1], tenant=self.TENANTS[self.tenant_of[j]]
        )

    def account(self, i: int, out, latency: float) -> None:
        """One completed request (``out`` is None for a typed failure).

        Called when the result is in hand, which stamps its completion.
        """
        j = i % self.STREAM_LEN
        shape = self.pool[self.order[j]][0]
        if out is None:
            self.failed += 1
            return
        if out.shape != shape or out.dtype != np.complex64:
            self.wrong += 1
        self.completed += 1
        self.flops_done += flops(shape)
        self.latencies.append(latency)
        self.records.append((time.perf_counter(), flops(shape), latency))
        if self.sampled[j] and len(self.samples) < MAX_SAMPLES:
            self.samples.append((int(self.order[j]), np.array(out, copy=True)))

    def failed_checks(self) -> int:
        return self.wrong

    def check_samples(self) -> None:
        refs: dict[int, np.ndarray] = {}
        for p, out in self.samples:
            if p not in refs:
                refs[p] = reference(self.pool[p][1])
            self.errors.append(rel_l2(out, refs[p]))
        if not self.samples:
            self.violations.append("no sampled results to check")
        bad = [e for e in self.errors if not e <= SINGLE_PRECISION_BOUND]
        if bad:
            self.violations.append(f"{len(bad)} sampled results exceed the bound")
        if self.wrong:
            self.violations.append(f"{self.wrong} results had the wrong shape/dtype")

    def direct_loop(self, server, seconds, inflight, spans=None, account=True):
        """Closed loop of ``inflight`` futures submitted straight to
        ``server`` from this thread for ``seconds``; returns
        ``(completed, wall seconds)``."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        pending: dict[int, tuple[float, object]] = {}
        completed = 0

        def submit() -> None:
            i = self.next_i
            self.next_i += 1
            req = self.request(i)
            t0 = time.perf_counter()
            try:
                fut = server.submit(req)
            except RejectedError:
                if account:
                    self.attempted += 1
                    self.failed += 1
                return
            if spans is not None:
                spans.add("serve.submit", t0, time.perf_counter() - t0, rid=i)
            if account:
                self.attempted += 1
            pending[i] = (t0, fut)
            fut.add_done_callback(lambda _f, i=i: done.put((i, time.perf_counter())))

        t_start = time.perf_counter()
        end = t_start + seconds
        for _ in range(inflight):
            submit()
        while pending:
            i, t_done = done.get(timeout=120)
            t0, fut = pending.pop(i)
            if spans is not None:
                spans.add("serve.request", t0, t_done - t0, rid=i)
            exc = fut.exception()
            completed += exc is None
            if account:
                self.account(i, None if exc is not None else fut.result(), t_done - t0)
            if time.perf_counter() < end:
                submit()
        return completed, time.perf_counter() - t_start

    def worker_seconds(self, server: FFTServer) -> float:
        return sum(server.stats().worker_elapsed_s.values())

    def run(self, seconds: float, spans=None) -> None:
        self.closed_loop(self.WARMUP_S, account=False)
        sim0 = self.worker_seconds(self.server)
        self.t_start = time.perf_counter()
        _, self.wall_s = self.closed_loop(seconds, spans)
        self.sim_seconds = self.worker_seconds(self.server) - sim0
        self.rss_mb = peak_rss_mb()

    def windows(self):
        width = self.wall_s / self.WINDOWS
        bins: list[list[tuple[float, float]]] = [[] for _ in range(self.WINDOWS)]
        for t, fl, lat in self.records:
            k = min(int((t - self.t_start) / width), self.WINDOWS - 1)
            bins[k].append((fl, lat))
        return [(width, b) for b in bins]

    def verify(self) -> list[str]:
        self.check_samples()
        return self.violations

    def close(self) -> None:
        self.server.close()


def serving_server(profiler=None) -> FFTServer:
    """The serve_mix/gateway_http server configuration."""
    return FFTServer(n_workers=2, backend=BACKEND, profiler=profiler)


class ServeMix(_Stream):
    """One client thread keeping 8 futures in flight on a pooled server."""

    name = "serve_mix"
    shapes = (((32, 32, 32), 1 / 3), ((64, 32, 32), 1 / 3), ((64, 64, 64), 1 / 3))
    INFLIGHT = 8

    def setup(self, profiler=None) -> tuple[float, int]:
        t0 = time.perf_counter()
        self.server = serving_server(profiler)
        out = self.server.submit(self.request(0)).result(timeout=120)
        setup_s = time.perf_counter() - t0
        self.next_i = 1
        return setup_s, crc(out)

    def closed_loop(self, seconds: float, spans=None, account=True):
        return self.direct_loop(self.server, seconds, self.INFLIGHT, spans, account)


class GatewayHttp(_Stream):
    """Two keep-alive loopback connections, POST /v1/fft/wait, closed loop."""

    name = "gateway_http"
    shapes = (((32, 32, 32), 0.5), ((32, 32, 16), 0.5))
    CONNECTIONS = 2
    PATH = "/v1/fft/wait"

    def make_inputs(self) -> None:
        super().make_inputs()
        self.bodies = [
            SubmitBody(shape=shape, data=x).encode() for shape, x in self.pool
        ]

    def setup(self, profiler=None) -> tuple[float, int]:
        self.loop = asyncio.new_event_loop()
        return self.loop.run_until_complete(self._setup(profiler))

    async def _setup(self, profiler) -> tuple[float, int]:
        t0 = time.perf_counter()
        self.server = serving_server(profiler)
        self.gateway = Gateway(self.server)
        self.http = await AsgiHttpServer(self.gateway).start()
        self.clients = [
            await HttpClient("127.0.0.1", self.http.port).connect()
            for _ in range(self.CONNECTIONS)
        ]
        out = await self.post(self.clients[0], 0)
        setup_s = time.perf_counter() - t0
        if out is None:
            raise RuntimeError("the first gateway request failed")
        self.next_i = 1
        return setup_s, crc(out)

    def headers(self, i: int) -> dict[str, str]:
        j = i % self.STREAM_LEN
        return {
            "content-type": "application/json",
            "x-tenant": self.TENANTS[self.tenant_of[j]],
        }

    async def post(self, client: HttpClient, i: int):
        """One submit-and-wait round trip; the decoded grid or None."""
        j = i % self.STREAM_LEN
        shape = self.pool[self.order[j]][0]
        resp = await client.request(
            "POST", self.PATH, self.headers(i), self.bodies[self.order[j]]
        )
        if resp.status != 200:
            return None
        return decode_array(resp.body, shape, np.dtype(np.complex64))

    async def _client_loop(self, client, end, spans, account) -> int:
        n = 0
        while time.perf_counter() < end:
            i = self.next_i
            self.next_i += 1
            t0 = time.perf_counter()
            out = await self.post(client, i)
            dt = time.perf_counter() - t0
            if spans is not None:
                spans.add("http.request", t0, dt, rid=i)
            n += out is not None
            if account:
                self.attempted += 1
                self.account(i, out, dt)
        return n

    async def _closed_loop(self, seconds, spans, account):
        t0 = time.perf_counter()
        counts = await asyncio.gather(
            *(
                self._client_loop(c, t0 + seconds, spans, account)
                for c in self.clients
            )
        )
        return sum(counts), time.perf_counter() - t0

    def closed_loop(self, seconds: float, spans=None, account=True):
        return self.loop.run_until_complete(
            self._closed_loop(seconds, spans, account)
        )

    def close(self) -> None:
        async def shutdown():
            for c in self.clients:
                await c.aclose()
            await self.http.aclose()
            # Let the server's connection tasks see the close and finish.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            if others:
                await asyncio.wait(others, timeout=10)

        self.loop.run_until_complete(shutdown())
        self.loop.close()
        self.server.close()


# ----------------------------------------------------------------------
# chaos_serve: seeded faults under deterministic serial dispatch
# ----------------------------------------------------------------------


class ChaosServe(_Stream):
    """Serial-dispatch server pumped chunk by chunk under seeded faults.

    The work is fixed rather than timed — ``REQUESTS_PER_SECOND`` times
    the run length — so the fault stream, and with it every fault count
    and the simulated timeline, is a pure function of the seed.
    """

    name = "chaos_serve"
    shapes = (((16, 16, 16), 1 / 3), ((32, 16, 16), 1 / 3), ((16, 32, 16), 1 / 3))
    REQUESTS_PER_SECOND = 1000
    CHUNK = 32
    N_WORKERS = 2

    def make_inputs(self) -> None:
        super().make_inputs()
        # Faulted results are checked against the float64 oracle; the
        # pool is small, so every entry gets its reference up front.
        self.refs = [reference(x) for _, x in self.pool]
        self.unresolved = 0
        self.chunks: list[tuple[float, list[tuple[float, float]]]] = []

    def injectors(self) -> list[FaultInjector]:
        """Per-worker seeded soft faults plus one device loss on worker 1."""
        children = np.random.SeedSequence([self.seed, 0xFA117]).spawn(self.N_WORKERS)
        out = []
        for wid, child in enumerate(children):
            specs = [
                FaultSpec("transfer-corrupt", rate=0.004),
                FaultSpec("ecc-bitflip", rate=0.002),
                FaultSpec("transfer-fail", rate=0.003),
            ]
            if wid == 1:
                at = int(np.random.default_rng(child).integers(400, 1600))
                specs.append(FaultSpec("device-lost", at_ops=(at,), category="launch"))
            out.append(FaultInjector(specs, seed=int(child.generate_state(1)[0])))
        return out

    def setup(self, profiler=None) -> tuple[float, int]:
        injectors = self.injectors()
        t0 = time.perf_counter()
        self.server = FFTServer(
            n_workers=self.N_WORKERS,
            serial_dispatch=True,
            start=False,
            health=HealthPolicy(),
            fault_injector=injectors,
            coalesce=CoalescePolicy(max_batch=8, max_wait_s=0.0),
            max_depth=4 * self.CHUNK,
            backend=BACKEND,
            profiler=profiler,
            name="chaos",
        )
        fut = self.server.submit(self.request(0))
        self.server.run_pending()
        out = fut.result(timeout=0)
        setup_s = time.perf_counter() - t0
        self.next_i = 1
        return setup_s, crc(out)

    def prepare_checks(self) -> None:
        """Fault-free outputs of a standalone cjit plan, per pool entry."""
        plans: dict[tuple, GpuFFT3D] = {}
        self.clean = []
        for shape, x in self.pool:
            if shape not in plans:
                plans[shape] = GpuFFT3D(shape, precision="single", backend=BACKEND)
            self.clean.append(plans[shape].forward(x))
        for p in plans.values():
            p.close()
        self.errors += [rel_l2(o, r) for o, r in zip(self.clean, self.refs)]

    def run(self, seconds: float, spans=None) -> None:
        server = self.server
        total = max(self.CHUNK, int(round(self.REQUESTS_PER_SECOND * seconds)))
        sim0 = self.worker_seconds(server)
        self.faulted = 0
        done_at: dict[int, float] = {}
        while self.attempted < total:
            n = min(self.CHUNK, total - self.attempted)
            chunk = []
            t0 = time.perf_counter()
            for _ in range(n):
                i = self.next_i
                self.next_i += 1
                ts = time.perf_counter()
                try:
                    fut = server.submit(self.request(i))
                except RejectedError:
                    chunk.append((i, ts, None))
                    continue
                if spans is not None:
                    spans.add("serve.submit", ts, time.perf_counter() - ts, rid=i)
                fut.add_done_callback(
                    lambda _f, i=i: done_at.__setitem__(i, time.perf_counter())
                )
                chunk.append((i, ts, fut))
            tp = time.perf_counter()
            server.run_pending()
            t1 = time.perf_counter()
            if spans is not None:
                spans.add("serve.run_pending", tp, t1 - tp)
            self.wall_s += t1 - t0
            self.attempted += n
            items: list[tuple[float, float]] = []
            self.chunks.append((t1 - t0, items))
            for i, ts, fut in chunk:  # checked between pumps, off the clock
                self._check(i, fut, done_at.pop(i, t1) - ts, items)
        server.drain()
        self.sim_seconds = self.worker_seconds(server) - sim0
        self.rss_mb = peak_rss_mb()
        self.leftover = server.queue.depth

    def windows(self):
        """Consecutive runs of whole chunks, timed by their pump seconds."""
        per = -(-len(self.chunks) // self.WINDOWS)
        groups = [self.chunks[k : k + per] for k in range(0, len(self.chunks), per)]
        return [
            (sum(sec for sec, _ in g), [it for _, items in g for it in items])
            for g in groups
        ]

    def _check(self, i: int, fut, latency: float, items: list) -> None:
        if fut is None:
            self.failed += 1
            return
        if not fut.done():
            self.unresolved += 1
            self.failed += 1
            return
        if fut.exception() is not None:
            self.failed += 1
            return
        out = fut.result()
        p = int(self.order[i % self.STREAM_LEN])
        shape = self.pool[p][0]
        self.completed += 1
        self.flops_done += flops(shape)
        self.latencies.append(latency)
        items.append((flops(shape), latency))
        if fut.faulted:
            self.faulted += 1
            err = rel_l2(out, self.refs[p])
            self.errors.append(err)
            if not err <= SINGLE_PRECISION_BOUND:
                self.wrong += 1
        elif not np.array_equal(out, self.clean[p]):
            self.wrong += 1

    def fault_counts(self) -> dict:
        """The run's fault fingerprint; equal for every run of one seed."""
        stats = self.server.stats()
        report = self.server.resilience_report()
        return {
            "requests": self.attempted,
            "faulted": self.faulted,
            "requeued": stats.requeued,
            "batches": stats.batches,
            "retries": report.total_retries,
            "checksum_failures": report.checksum_failures,
            "device_resets": report.device_resets,
            "downgrades": len(report.downgrades),
            "failed": self.failed,
            # Set-up charges the measured compile wall time to the same
            # timeline, which moves the last bits of the difference.
            "sim_seconds": f"{self.sim_seconds:.9f}",
        }

    def verify(self) -> list[str]:
        if self.unresolved:
            self.violations.append(f"{self.unresolved} futures never resolved")
        if self.leftover:
            self.violations.append(f"{self.leftover} tickets left in the queue")
        if self.wrong:
            self.violations.append(
                f"{self.wrong} results differ from the fault-free plan "
                "(unfaulted) or exceed the bound (faulted)"
            )
        self.check_fingerprint()
        return self.violations

    def check_fingerprint(self) -> None:
        """Compare this run's fault counts with earlier runs of the seed."""
        path = FINGERPRINTS
        path.parent.mkdir(exist_ok=True)
        key = f"seed={self.seed} requests={self.attempted}"
        counts = self.fault_counts()
        known = json.loads(path.read_text()) if path.exists() else {}
        if key in known and known[key] != counts:
            self.violations.append(
                f"fault counts {counts} differ from an earlier run {known[key]}"
            )
        known.setdefault(key, counts)
        path.write_text(json.dumps(known, indent=1, sort_keys=True))

    def close(self) -> None:
        self.server.close()


WORKLOADS = {w.name: w for w in (Fft256, ServeMix, GatewayHttp, ChaosServe)}
