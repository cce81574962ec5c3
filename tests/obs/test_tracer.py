"""Tracer behaviour: hook capture, enrichment, opt-in cost model."""

import numpy as np
import pytest

from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, engine_of


@pytest.fixture
def sim():
    return DeviceSimulator(GEFORCE_8800_GTX)


def _roundtrip(sim, n=4096, name="x", stream=None):
    host = np.ones(n, np.complex64)
    dev = sim.allocate((n,), np.complex64, name)
    sim.h2d(host, dev, f"{name}-up", stream=stream)
    sim.d2h(dev, host, f"{name}-down", stream=stream)


class TestEngineOf:
    def test_mapping(self):
        assert engine_of("h2d") == "h2d"
        assert engine_of("d2h") == "d2h"
        assert engine_of("kernel") == "compute"
        assert engine_of("host") == "host"
        assert engine_of("backoff") == "host"


class TestCapture:
    def test_captures_every_event(self, sim):
        tracer = Tracer().attach(sim)
        _roundtrip(sim)
        sim.charge("think", 1e-4, "host")
        assert len(tracer) == 3
        kinds = [s.kind for s in tracer.spans()]
        assert kinds == ["h2d", "d2h", "host"]

    def test_span_mirrors_event_fields(self, sim):
        tracer = Tracer().attach(sim)
        _roundtrip(sim, stream=2)
        up = tracer.spans()[0]
        ev = sim.events()[0]
        assert isinstance(up, Span)
        assert (up.label, up.start, up.seconds) == (ev.label, ev.start, ev.seconds)
        assert up.bytes_moved == ev.bytes_moved == 4096 * 8
        assert up.stream == 2
        assert up.engine == "h2d"
        assert up.end == pytest.approx(ev.end)

    def test_kernel_span_lands_on_compute_engine(self, sim):
        tracer = Tracer().attach(sim)
        sim.launch_timed("k", 2e-4)
        span = tracer.spans()[0]
        assert span.kind == "kernel"
        assert span.engine == "compute"
        assert span.seconds == 2e-4

    def test_no_tracer_no_spans_and_no_hooks(self, sim):
        _roundtrip(sim)
        assert sim._record_hooks == []
        tracer = Tracer().attach(sim)
        assert tracer.spans() == []  # history is not back-filled

    def test_detach_stops_capture(self, sim):
        tracer = Tracer().attach(sim)
        _roundtrip(sim, name="a")
        tracer.detach(sim)
        _roundtrip(sim, name="b")
        assert len(tracer) == 2
        assert sim._record_hooks == []

    def test_context_manager_detaches(self, sim):
        with Tracer() as tracer:
            tracer.attach(sim)
            _roundtrip(sim)
        assert sim._record_hooks == []
        assert len(tracer) == 2  # spans survive detach

    def test_attach_is_idempotent(self, sim):
        tracer = Tracer()
        tracer.attach(sim).attach(sim)
        _roundtrip(sim)
        assert len(tracer) == 2
        assert tracer.attached == [sim]

    def test_two_simulators_one_tracer(self, sim):
        other = DeviceSimulator(GEFORCE_8800_GTX)
        tracer = Tracer().attach(sim).attach(other)
        _roundtrip(sim, name="a")
        _roundtrip(other, name="b")
        assert len(tracer) == 4

    def test_duplicate_raw_hook_rejected(self, sim):
        hook = sim.add_record_hook(lambda ev, tags: None)
        with pytest.raises(ValueError):
            sim.add_record_hook(hook)

    def test_clear_keeps_attachment(self, sim):
        tracer = Tracer().attach(sim)
        _roundtrip(sim, name="a")
        tracer.clear()
        assert len(tracer) == 0
        _roundtrip(sim, name="b")
        assert len(tracer) == 2


class TestAnnotations:
    def test_annotations_enrich_spans(self, sim):
        tracer = Tracer().attach(sim)
        with sim.annotate(plan="p0", entry=3, stage="s1"):
            _roundtrip(sim)
        span = tracer.spans()[0]
        assert span.plan == "p0"
        assert span.entry == 3
        assert dict(span.tags) == {"stage": "s1"}

    def test_annotation_scopes_nest_and_restore(self, sim):
        tracer = Tracer().attach(sim)
        with sim.annotate(plan="outer"):
            with sim.annotate(entry=1):
                sim.charge("inner", 1e-6, "host")
            sim.charge("outer-only", 1e-6, "host")
        sim.charge("bare", 1e-6, "host")
        inner, outer, bare = tracer.spans()
        assert (inner.plan, inner.entry) == ("outer", 1)
        assert (outer.plan, outer.entry) == ("outer", None)
        assert (bare.plan, bare.entry) == (None, None)
        assert sim.annotations == {}

    def test_none_tags_are_dropped(self, sim):
        with sim.annotate(plan=None):
            assert sim.annotations == {}

    def test_inner_tag_shadows_outer(self, sim):
        tracer = Tracer().attach(sim)
        with sim.annotate(plan="a"):
            with sim.annotate(plan="b"):
                sim.charge("x", 1e-6, "host")
        assert tracer.spans()[0].plan == "b"


class TestEmitAndAggregation:
    def test_emit_synthetic_span(self):
        tracer = Tracer()
        span = tracer.emit(
            "kernel", "rank0-xy", 1.0, 2.0, stream=0, plan="mg", entry=7, rank=0
        )
        assert span.engine == "compute"
        assert span.end == 3.0
        assert tracer.spans() == [span]
        assert dict(span.tags) == {"rank": 0}

    def test_engine_busy_matches_simulator(self, sim):
        tracer = Tracer().attach(sim)
        _roundtrip(sim, name="a", stream=1)
        _roundtrip(sim, name="b", stream=2)
        sim.launch_timed("k", 3e-4)
        busy = tracer.engine_busy_seconds()
        sim_busy = sim.engine_busy_seconds()
        for engine in ("h2d", "compute", "d2h"):
            assert busy[engine] == pytest.approx(sim_busy[engine], abs=1e-12)

    def test_metrics_fold_on_capture(self, sim):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry).attach(sim)
        with sim.annotate(plan="p"):
            _roundtrip(sim)
        assert registry.counter("sim.events", "events").value == 2
        assert (
            registry.counter("sim.events", "events", {"plan": "p"}).value == 2
        )

    def test_tracing_does_not_change_the_timeline(self):
        def run(traced):
            s = DeviceSimulator(GEFORCE_8800_GTX)
            t = Tracer().attach(s) if traced else None
            _roundtrip(s, stream=1)
            s.launch_timed("k", 1e-4, stream=1)
            return s.events(), t

        plain, _ = run(False)
        traced, _ = run(True)
        assert [(e.label, e.start, e.seconds) for e in plain] == [
            (e.label, e.start, e.seconds) for e in traced
        ]
