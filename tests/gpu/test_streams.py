"""Tests for the stream/event model of the device simulator.

CUDA semantics the schedule must honor: operations on one stream are
ordered; each hardware engine (H2D copy, D2H copy, compute) serializes
its own work; everything else overlaps.  ``elapsed`` is the makespan of
that schedule, so overlapped timelines come out shorter than the sum of
their parts — and default-stream (``stream=None``) operations barrier on
everything in flight.
"""

import numpy as np
import pytest

from repro.gpu.access import BurstPattern
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.isa import InstructionMix
from repro.gpu.kernel import KernelSpec, MemoryAccessSpec
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GTX


@pytest.fixture
def sim():
    return DeviceSimulator(GEFORCE_8800_GTX)


def _pair(sim, n=64 * 1024, name="x"):
    host = np.zeros(n, np.complex64)
    dev = sim.allocate((n,), np.complex64, name)
    return host, dev


class TestOverlap:
    def test_distinct_streams_distinct_engines_overlap(self, sim):
        """h2d on stream 1 and d2h on stream 2 run concurrently."""
        h1, d1 = _pair(sim, name="a")
        h2, d2 = _pair(sim, name="b")
        sim.h2d(h1, d1, stream=1)
        sim.d2h(d2, h2, stream=2)
        busy = sim.engine_busy_seconds()
        total = busy["h2d"] + busy["d2h"]
        assert sim.elapsed < total
        assert sim.elapsed == pytest.approx(max(busy["h2d"], busy["d2h"]))

    def test_same_engine_serializes_across_streams(self, sim):
        """Two h2d copies fight over one copy engine even on two streams."""
        h1, d1 = _pair(sim, name="a")
        h2, d2 = _pair(sim, name="b")
        sim.h2d(h1, d1, stream=1)
        sim.h2d(h2, d2, stream=2)
        busy = sim.engine_busy_seconds()
        assert sim.elapsed == pytest.approx(busy["h2d"])
        first, second = sim.events()
        assert second.start == pytest.approx(first.end)

    def test_same_stream_serializes_across_engines(self, sim):
        """h2d then kernel-time on ONE stream: ordered, no overlap."""
        h, d = _pair(sim)
        sim.h2d(h, d, stream=1)
        sim.launch_timed("k", 1e-4, stream=1)
        first, second = sim.events()
        assert second.start == pytest.approx(first.end)
        assert sim.elapsed == pytest.approx(first.seconds + second.seconds)

    def test_event_ordering_across_streams(self, sim):
        """record_event / wait_event impose cross-stream ordering."""
        sim.launch_timed("producer", 2e-4, stream=1)
        stamp = sim.record_event(stream=1)
        sim.wait_event(2, stamp)
        sim.launch_timed("consumer", 1e-4, stream=2)
        producer, consumer = sim.events()
        assert consumer.start >= producer.end

    def test_kernels_serialize_on_the_compute_engine(self, sim):
        """One compute engine: concurrent kernels queue even on 2 streams."""
        sim.launch_timed("k1", 3e-4, stream=1)
        sim.launch_timed("k2", 1e-4, stream=2)
        first, second = sim.events()
        assert second.start == pytest.approx(first.end)
        assert sim.elapsed == pytest.approx(4e-4)

    def test_sync_op_barriers_after_async(self, sim):
        """A default-stream op waits for ALL in-flight async work."""
        h, d = _pair(sim)
        sim.launch_timed("k", 3e-4, stream=1)
        sim.d2h(d, h, stream=2)  # overlaps the kernel
        horizon = max(3e-4, sim.engine_busy_seconds()["d2h"])
        sim.h2d(h, d)  # synchronous: starts at the horizon
        ev = sim.events()[-1]
        assert ev.stream is None
        assert ev.start == pytest.approx(horizon)

    def test_synchronize_returns_makespan(self, sim):
        h, d = _pair(sim)
        sim.launch_timed("k", 3e-4, stream=1)
        sim.h2d(h, d, stream=2)
        expect = max(3e-4, sim.engine_busy_seconds()["h2d"])
        assert sim.synchronize() == pytest.approx(expect)
        assert sim.elapsed == pytest.approx(expect)

    def test_sync_only_workload_elapsed_is_sum(self, sim):
        """Back-compat: without streams, elapsed == sum of event times."""
        h, d = _pair(sim)
        sim.h2d(h, d)
        sim.launch_timed("k", 2e-4)
        sim.d2h(d, h)
        assert sim.elapsed == pytest.approx(
            sum(e.seconds for e in sim.events())
        )

    def test_reset_clock_rewinds_cursors(self, sim):
        h, d = _pair(sim)
        sim.h2d(h, d, stream=3)
        sim.reset_clock()
        assert sim.elapsed == 0.0
        sim.launch_timed("k", 1e-4, stream=3)
        assert sim.events()[0].start == 0.0


_SPEC = KernelSpec(
    "k", 48, 64, 16, 0, 1024, InstructionMix(flops=10.0),
    (MemoryAccessSpec(BurstPattern(0, (1024,), (128,), 1, 128, 128)),),
)

#: Every device operation, called as ``op(sim, host, dev, stream)``,
#: with the engine it occupies.
_OPS = {
    "h2d": (lambda sim, h, d, s: sim.h2d(h, d, stream=s), "h2d"),
    "d2h": (lambda sim, h, d, s: sim.d2h(d, h, stream=s), "d2h"),
    "launch": (lambda sim, h, d, s: sim.launch(_SPEC, stream=s), "compute"),
    "launch_timed": (
        lambda sim, h, d, s: sim.launch_timed("k", 5e-5, stream=s),
        "compute",
    ),
}


class TestOneOpPerKind:
    """Each op places itself by the same two rules, whatever its kind."""

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_default_stream_starts_at_horizon_and_joins(self, sim, name):
        op, _ = _OPS[name]
        h, d = _pair(sim, n=4096)
        sim.launch_timed("busy", 3e-4, stream=1)
        sim.h2d(h, d, stream=2)
        horizon = sim.elapsed
        t = op(sim, h, d, None)
        ev = sim.events()[-1]
        assert ev.stream is None
        assert ev.start == horizon
        assert t == ev.seconds > 0
        assert sim.record_event(1) == sim.record_event(2) == ev.end == sim.elapsed

    @pytest.mark.parametrize("lead", ["stream", "engine"])
    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_numbered_stream_starts_after_stream_and_engine(self, sim, name, lead):
        op, engine = _OPS[name]
        h, d = _pair(sim, n=4096)
        op(sim, h, d, 6)  # occupies the op's engine on another stream
        engine_free = sim.record_event(6)
        stream_free = engine_free * (2.0 if lead == "stream" else 0.5)
        sim.wait_event(5, stream_free)
        t = op(sim, h, d, 5)
        ev = sim.events()[-1]
        assert (ev.stream, ev.start) == (5, max(stream_free, engine_free))
        assert t == ev.seconds > 0
        assert sim.record_event(5) == ev.end
        assert sim.record_event(6) == engine_free  # other streams untouched
        assert sim.engine_busy_seconds()[engine] == pytest.approx(2 * t)


class TestEngineAccounting:
    def test_engine_busy_seconds_by_kind(self, sim):
        h, d = _pair(sim)
        sim.h2d(h, d, stream=1)
        sim.launch_timed("k", 2e-4, stream=1)
        sim.d2h(d, h, stream=1)
        busy = sim.engine_busy_seconds()
        assert busy["compute"] == pytest.approx(2e-4)
        assert busy["h2d"] > 0 and busy["d2h"] > 0
        assert sim.elapsed == pytest.approx(sum(busy.values()))

    def test_events_carry_stream_and_start(self, sim):
        sim.launch_timed("k", 1e-4, stream=7)
        (ev,) = sim.events()
        assert ev.stream == 7
        assert ev.start == 0.0
        assert ev.end == pytest.approx(1e-4)


class TestFaultScope:
    def test_scope_attaches_and_detaches(self, sim):
        inj = FaultInjector([FaultSpec("launch-fail", rate=1.0)])
        assert sim.faults is None
        with sim.fault_scope(inj):
            assert sim.faults is inj
        assert sim.faults is None

    def test_none_scope_is_noop(self, sim):
        with sim.fault_scope(None):
            assert sim.faults is None

    def test_same_injector_scope_is_noop(self):
        inj = FaultInjector([FaultSpec("launch-fail", rate=1.0)])
        sim = DeviceSimulator(GEFORCE_8800_GTX, fault_injector=inj)
        with sim.fault_scope(inj):
            assert sim.faults is inj
        assert sim.faults is inj  # scope did not strip the owner

    def test_conflicting_injector_raises(self):
        a = FaultInjector([FaultSpec("launch-fail", rate=1.0)])
        b = FaultInjector([FaultSpec("launch-fail", rate=1.0)])
        sim = DeviceSimulator(GEFORCE_8800_GTX, fault_injector=a)
        with pytest.raises(ValueError, match="already has a fault injector"):
            with sim.fault_scope(b):
                pass

    def test_detaches_on_exception(self, sim):
        inj = FaultInjector([FaultSpec("launch-fail", rate=1.0)])
        with pytest.raises(RuntimeError):
            with sim.fault_scope(inj):
                raise RuntimeError("boom")
        assert sim.faults is None
