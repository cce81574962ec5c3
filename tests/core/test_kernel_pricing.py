"""Each kernel spec is priced once per simulator and replayed after.

:func:`repro.gpu.timing.time_kernel` is a pure function of (device,
spec), so :class:`~repro.gpu.simulator.DeviceSimulator` evaluates it once
per spec and replays the stored seconds on every later launch.  These
tests pin both halves: the count (an engine's 20 transforms price each
of its five specs once) and the replay (the timeline is the one an
unmemoized simulator records, with faults as without).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.core.plan_cache import PLAN_CACHE
from repro.gpu import simulator as simulator_mod
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.gpu.timing import time_kernel

SHAPE = (16, 16, 16)
TRANSFORMS = 20


def _grid(seed: int = 0, batch: int | None = None) -> np.ndarray:
    shape = SHAPE if batch is None else (batch, *SHAPE)
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


def _run(engine_kind: str, injector: FaultInjector | None = None):
    """20 transforms of one engine; returns it (closed) for inspection."""
    if engine_kind == "single":
        engine = GpuFFT3D(SHAPE, fault_injector=injector, name="priced")
        x = _grid()
        for i in range(TRANSFORMS):
            engine.execute(x, inverse=bool(i % 2))
    else:
        engine = BatchedGpuFFT3D(SHAPE, fault_injector=injector, name="priced")
        x = _grid(batch=4)
        for i in range(TRANSFORMS // 4):
            engine.execute(x, inverse=bool(i % 2))
    engine.close()
    return engine


def _injector() -> FaultInjector:
    return FaultInjector(
        [
            FaultSpec("launch-fail", rate=0.1),
            FaultSpec("ecc-bitflip", rate=0.1),
            FaultSpec("transfer-corrupt", rate=0.05),
        ],
        seed=3,
    )


@pytest.mark.parametrize("engine_kind", ["single", "batch"])
def test_each_spec_is_priced_once(engine_kind, monkeypatch):
    priced = []

    def counting(device, spec, memsystem=None):
        priced.append(id(spec))
        return time_kernel(device, spec, memsystem)

    monkeypatch.setattr(simulator_mod, "time_kernel", counting)
    engine = _run(engine_kind)
    launched = [e for e in engine.simulator.events() if e.kind == "kernel"]
    assert len(launched) == 5 * TRANSFORMS
    assert len(priced) == len(set(priced)) == 5


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("engine_kind", ["single", "batch"])
def test_replayed_prices_leave_the_timeline_unchanged(
    engine_kind, faults, monkeypatch
):
    def fields(engine):
        return [
            (e.kind, e.label, e.seconds, e.bytes_moved, e.flops, e.start,
             e.stream, e.faulted)
            for e in engine.simulator.events()
        ]

    memoized = fields(_run(engine_kind, _injector() if faults else None))
    monkeypatch.setattr(
        DeviceSimulator,
        "_price",
        lambda self, spec: time_kernel(self.device, spec, self.memsystem).seconds,
    )
    repriced = fields(_run(engine_kind, _injector() if faults else None))
    assert memoized == repriced
    assert any(e[-1] for e in memoized) == faults  # the faults did land


def test_price_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(DeviceSimulator, "MAX_PRICES", 3)
    sim = DeviceSimulator(GEFORCE_8800_GTX)
    spec = PLAN_CACHE.step_specs(SHAPE, "single", sim.device)[0]
    copies = [replace(spec, name=f"k{i}") for i in range(5)]
    for s in copies:
        sim.launch(s)
    assert len(sim._prices) == 3
    assert sim.launch(copies[0]) == time_kernel(sim.device, spec).seconds
