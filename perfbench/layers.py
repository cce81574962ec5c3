"""The traced run: per-layer metrics, timed from outside each layer.

A traced run (``run.py --trace 1``) is separate from the timed runs.  It

1. sets the workload up once from an empty JIT cache (``jit.compile_s``),
2. runs the workload untraced for half the run, then builds a second
   system with a :class:`repro.obs.Profiler` attached and runs it for the
   other half while recording host-clock spans around every public call
   the benchmark makes (``obs.trace_overhead_fraction`` compares the
   two throughputs),
3. probes each layer by calling its public functions directly on the
   workload's own grids: ``FiveStepPlan.execute``, ``DeviceSimulator``
   ``h2d``/``d2h``, ``BatchedGpuFFT3D.execute``, ``SubmitBody.parse``,
   ``encode_array``, ``httpd.asgi_request`` and a socket round trip.

A layer the workload bypasses reports 0 for its metrics.  Spans are kept
in memory and written as one Chrome trace when the run ends.  Which
end-to-end metric each per-layer metric should move is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import BatchedGpuFFT3D, GpuFFT3D
from repro.core.plan_cache import PLAN_CACHE
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.jit import cc
from repro.obs import Profiler
from repro.serve import SubmitBody, asgi_request, encode_array

from workloads import BACKEND

PER_LAYER = {
    "jit.compile_s": "s",
    "five_step.execute_ms": "ms",
    "host.copy_gbps": "GB/s",
    "five_step.bw_fraction": "fraction",
    "simulator.h2d_ms": "ms",
    "simulator.d2h_ms": "ms",
    "api.unattributed_ms": "ms",
    "sim.kernel_s": "s",
    "sim.transfer_s": "s",
    "sim.host_us_per_event": "us",
    "batch.entry_ms": "ms",
    "serve.outside_engine_fraction": "fraction",
    "serve.submit_us": "us",
    "serve.batch_size_mean": "count",
    "serve.coalesce.full": "count",
    "serve.coalesce.window": "count",
    "serve.coalesce.drain": "count",
    "workspace.hit_rate": "fraction",
    "plan_cache.hits": "count",
    "plan_cache.misses": "count",
    "plan_cache.compiles": "count",
    "wire.parse_ms": "ms",
    "wire.encode_ms": "ms",
    "gateway.asgi_ms": "ms",
    "httpd.socket_ms": "ms",
    "gateway.direct_ratio": "ratio",
    "resilient.retries": "count",
    "resilient.checksum_failures": "count",
    "resilient.device_resets": "count",
    "resilient.downgrades": "count",
    "serve.requeued": "count",
    "serve.faulted_fraction": "fraction",
    "resilient.useful_fraction": "fraction",
    "obs.trace_overhead_fraction": "fraction",
    "unattributed_fraction": "fraction",
}


class Spans:
    """Host-clock spans around the benchmark's calls, kept in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.events: list[tuple[str, float, float, int | None]] = []

    def add(self, name: str, start: float, seconds: float, rid: int | None = None):
        self.events.append((name, start, seconds, rid))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, seconds)``."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.add(name, t0, dt)
        return out, dt

    def mean(self, name: str) -> float:
        durations = [s for n, _, s, _ in self.events if n == name]
        return statistics.fmean(durations) if durations else 0.0

    def write(self, path: Path) -> Path:
        """One Chrome trace-event file (one track per span name)."""
        tids = {name: i for i, name in enumerate(dict.fromkeys(e[0] for e in self.events))}
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": tids[name],
             "ts": (start - self.origin) * 1e6, "dur": seconds * 1e6,
             "args": {} if rid is None else {"request": rid}}
            for name, start, seconds, rid in self.events
        ]
        path.write_text(json.dumps({"traceEvents": events}))
        return path


def _median_time(spans: Spans, name: str, reps: int, fn, *args, **kwargs) -> float:
    return statistics.median(spans.timed(name, fn, *args, **kwargs)[1] for _ in range(reps))


def probe_shape(spans: Spans, shape, x: np.ndarray, batch: int) -> dict[str, float]:
    """Per-layer costs of one transform of ``x`` (and a batch of ``batch``)."""
    nbytes = x.nbytes
    reps = max(3, min(25, int(2e8 // (nbytes * 40))))
    dev = GEFORCE_8800_GTX
    plan = GpuFFT3D(shape, precision="single", backend=BACKEND)
    plan.forward(x)  # warm
    sim = plan.simulator
    k0, t0 = sim.kernel_seconds, sim.transfer_seconds
    forward_s = _median_time(spans, "api.forward", reps, plan.forward, x)
    kernel_s = (sim.kernel_seconds - k0) / reps
    transfer_s = (sim.transfer_seconds - t0) / reps

    five = PLAN_CACHE.five_step(shape, "single", dev, backend=BACKEND)
    out = np.empty_like(x)
    execute_s = _median_time(
        spans, "five_step.execute", reps, five.execute, x,
        workspace=plan.workspace, out=out,
    )
    plan.close()
    moved = sum(s.total_bytes for s in PLAN_CACHE.step_specs(shape, "single", dev, backend=BACKEND))

    bare = DeviceSimulator(dev)
    buf = bare.allocate(shape, x.dtype, "probe")
    h2d_s = _median_time(spans, "simulator.h2d", reps, bare.h2d, x, buf)
    d2h_s = _median_time(spans, "simulator.d2h", reps, bare.d2h, buf, out)
    bare.free(buf)

    src = np.ascontiguousarray(x)
    copy_s = _median_time(spans, "host.copyto", reps, np.copyto, out, src)
    copy_gbps = 2 * nbytes / copy_s / 1e9

    entry_s = 0.0
    if batch:
        engine = BatchedGpuFFT3D(shape, precision="single", backend=BACKEND)
        xs = [x] * batch
        engine.execute(xs)  # warm
        entry_s = _median_time(spans, "batch.execute", reps, engine.execute, xs) / batch
        engine.close()
    return {
        "forward_ms": forward_s * 1e3,
        "five_step.execute_ms": execute_s * 1e3,
        "simulator.h2d_ms": h2d_s * 1e3,
        "simulator.d2h_ms": d2h_s * 1e3,
        "host.copy_gbps": copy_gbps,
        "five_step.bw_fraction": moved / execute_s / 1e9 / copy_gbps,
        "sim.kernel_s": kernel_s,
        "sim.transfer_s": transfer_s,
        "batch.entry_ms": entry_s * 1e3,
    }


def _weighted(w, spans: Spans, batch: int) -> dict[str, float]:
    """Layer probes for each of the workload's shapes, weighted by share."""
    total: dict[str, float] = {}
    for shape, share in w.shapes:
        x = w.a if w.name == "fft256" else next(g for s, g in w.pool if s == shape)
        for k, v in probe_shape(spans, shape, x, batch).items():
            total[k] = total.get(k, 0.0) + share * v
    return total


def _counter_sum(snapshot: dict, prefix: str) -> float:
    return sum(
        c["value"] for name, c in snapshot["counters"].items()
        if name == prefix or name.startswith(prefix + "{")
    )


def _gateway_probes(w, spans: Spans) -> dict[str, float]:
    """Wire, ASGI and socket costs of the gateway workload's payloads."""
    n = len(w.bodies)
    parse_s = statistics.median(
        spans.timed("wire.parse", SubmitBody.parse, body)[1] for body in w.bodies
    )
    encode_s = statistics.median(
        spans.timed("wire.encode", encode_array, out)[1] for _, out in w.samples[:n]
    ) if w.samples else 0.0
    headers = w.headers(0)

    async def asgi_once(body):
        t0 = time.perf_counter()
        resp = await asgi_request(w.gateway, "POST", w.PATH, headers, body)
        dt = time.perf_counter() - t0
        spans.add("gateway.asgi_request", t0, dt)
        if resp.status != 200:
            raise RuntimeError(f"asgi probe answered {resp.status}")
        return dt

    async def socket_once(i):
        t0 = time.perf_counter()
        out = await w.post(w.clients[0], i)
        dt = time.perf_counter() - t0
        spans.add("http.request.sequential", t0, dt, rid=i)
        if out is None:
            raise RuntimeError("socket probe failed")
        return dt

    asgi_s = statistics.median(
        w.loop.run_until_complete(asgi_once(w.bodies[int(w.order[i])])) for i in range(2 * n)
    )
    socket_s = statistics.median(
        w.loop.run_until_complete(socket_once(i)) for i in range(2 * n)
    )
    return {
        "wire.parse_ms": parse_s * 1e3,
        "wire.encode_ms": encode_s * 1e3,
        "gateway.asgi_ms": asgi_s * 1e3,
        "httpd.socket_ms": (socket_s - asgi_s) * 1e3,
    }


def traced_run(cls, seed: int, seconds: float, out_dir: Path):
    """Run workload class ``cls`` traced.

    Returns ``(metrics, violations, attempted, failed, trace path)``.
    """
    half = seconds / 2
    w = cls(seed)
    w.make_inputs()
    w.setup()
    compile_s = cc.last_compile_seconds()
    w.prepare_checks()
    w.run(half)
    violations = w.verify()
    w.close()
    untraced_rps = w.completed / w.wall_s
    attempted, failed = w.attempted, w.failed + w.failed_checks()
    del w  # free the first system's inputs before building the second

    spans = Spans()
    profiler = Profiler()
    t = cls(seed)
    t.make_inputs()
    t.setup(profiler=profiler)
    t.prepare_checks()
    n_events0 = len(profiler.tracer.spans())
    t.run(half, spans=spans)
    n_events = len(profiler.tracer.spans()) - n_events0
    traced_rps = t.completed / t.wall_s
    violations += t.verify()
    attempted += t.attempted
    failed += t.failed + t.failed_checks()

    serving = t.name != "fft256"
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["jit.compile_s"] = compile_s
    m["obs.trace_overhead_fraction"] = 1 - traced_rps / untraced_rps
    m["sim.host_us_per_event"] = t.wall_s * 1e6 / max(n_events, 1)

    stats = t.server.stats() if serving else None
    batch = 0
    if serving:
        m["serve.batch_size_mean"] = stats.completed / max(stats.batches, 1)
        batch = max(1, round(m["serve.batch_size_mean"]))
    probes = _weighted(t, spans, batch)
    forward_ms = probes.pop("forward_ms")
    m.update(probes)
    m["api.unattributed_ms"] = (
        forward_ms - m["five_step.execute_ms"] - m["simulator.h2d_ms"] - m["simulator.d2h_ms"]
    )

    snap = profiler.snapshot()
    hits = _counter_sum(snap, "workspace.hits")
    misses = _counter_sum(snap, "workspace.misses")
    m["workspace.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    cache = PLAN_CACHE.stats
    m["plan_cache.hits"], m["plan_cache.misses"] = cache.hits, cache.misses
    m["plan_cache.compiles"] = cache.compiles
    lost = sum(s.seconds for s in profiler.tracer.spans() if s.faulted or s.kind == "backoff")
    elapsed = sum(
        g["value"] for name, g in snap["gauges"].items()
        if name.startswith("sim.elapsed.seconds")
    )
    m["resilient.useful_fraction"] = 1 - lost / elapsed

    if not serving:
        m["unattributed_fraction"] = m["api.unattributed_ms"] / forward_ms
    else:
        for reason in ("full", "window", "drain"):
            m[f"serve.coalesce.{reason}"] = _counter_sum(snap, f"serve.coalesce{{reason={reason}}}")
        report = t.server.resilience_report()
        m["resilient.retries"] = report.total_retries
        m["resilient.checksum_failures"] = report.checksum_failures
        m["resilient.device_resets"] = report.device_resets
        m["resilient.downgrades"] = len(report.downgrades)
        m["serve.requeued"] = stats.requeued
        m["serve.faulted_fraction"] = getattr(t, "faulted", 0) / t.completed
        # Worker-seconds the serving path had: pooled dispatch runs up to
        # min(workers, cores) batches at once; serial dispatch runs one.
        parallel = 1 if t.name == "chaos_serve" else min(2, os.cpu_count() or 1)
        capacity_ms = t.wall_s * parallel * 1e3 / t.completed
        m["serve.outside_engine_fraction"] = 1 - m["batch.entry_ms"] / capacity_ms
        if t.name == "gateway_http":
            m.update(_gateway_probes(t, spans))
            # The same payloads submitted directly, 2 in flight, give the
            # gateway's throughput ratio and the submit cost it wraps.
            done, wall = t.direct_loop(t.server, half / 2, t.CONNECTIONS, spans, account=False)
            m["gateway.direct_ratio"] = traced_rps / (done / wall)
            m["serve.submit_us"] = spans.mean("serve.submit") * 1e6
            layer_ms = m["wire.parse_ms"] + m["wire.encode_ms"]
        else:
            m["serve.submit_us"] = spans.mean("serve.submit") * 1e6
            layer_ms = 0.0
        layer_ms += m["batch.entry_ms"] + m["serve.submit_us"] / 1e3
        m["unattributed_fraction"] = 1 - layer_ms / capacity_ms
    t.close()
    profiler.close()
    out_dir.mkdir(exist_ok=True)
    path = spans.write(out_dir / f"spans-{t.name}-seed{seed}.json")
    metrics = {name: (float(m[name]), unit, 1) for name, unit in PER_LAYER.items()}
    return metrics, violations, attempted, failed, path

