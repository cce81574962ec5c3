"""Timeline invariant validator: clean workloads pass, forgeries fail."""

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.simulator import DeviceSimulator, TimelineEvent
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.obs.validate import (
    TimelineInvariantError,
    check_timeline,
    validate_timeline,
)


def _signal(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex64)


class TestCleanWorkloads:
    def test_empty_timeline_is_clean(self):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        assert validate_timeline(sim) == []
        check_timeline(sim)

    def test_synchronous_roundtrip(self):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        host = np.ones(4096, np.complex64)
        dev = sim.allocate((4096,), np.complex64, "x")
        sim.h2d(host, dev, "up")
        sim.launch_timed("k", 1e-4)
        sim.d2h(dev, host, "down")
        check_timeline(sim)

    def test_stream_pipelined_workload(self):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        host = np.ones(4096, np.complex64)
        for s in range(3):
            dev = sim.allocate((4096,), np.complex64, f"x{s}")
            sim.h2d(host, dev, stream=s, label=f"up{s}")
            sim.launch_timed(f"k{s}", 2e-4, stream=s)
            sim.d2h(dev, host, stream=s, label=f"down{s}")
        check_timeline(sim)

    def test_single_plan_execute(self):
        with GpuFFT3D((16, 16, 16)) as plan:
            plan.forward(_signal((16, 16, 16)))
            check_timeline(plan.simulator)

    def test_batched_pipeline(self):
        with BatchedGpuFFT3D((16, 16, 16), n_streams=3) as plan:
            plan.forward(_signal((4, 16, 16, 16)))
            plan.inverse(_signal((4, 16, 16, 16), seed=1))
            check_timeline(plan.simulator)

    def test_faulted_batch_still_satisfies_invariants(self):
        injector = FaultInjector(
            [FaultSpec("transfer-fail", at_ops=(2, 5))], seed=3
        )
        with BatchedGpuFFT3D(
            (16, 16, 16), n_streams=2, fault_injector=injector
        ) as plan:
            plan.forward(_signal((4, 16, 16, 16)))
            check_timeline(plan.simulator)


class TestViolations:
    """Forged timelines trip exactly the invariant they break."""

    def _sim_with(self, *events):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        sim._timeline.extend(events)
        return sim

    def test_negative_seconds(self):
        sim = self._sim_with(
            TimelineEvent("host", "bad", -1.0, start=0.0)
        )
        problems = validate_timeline(sim)
        assert any("seconds" in p and "< 0" in p for p in problems)

    def test_stream_start_regression(self):
        sim = self._sim_with(
            TimelineEvent("host", "a", 0.1, start=5.0),
            TimelineEvent("host", "b", 0.1, start=1.0),
        )
        problems = validate_timeline(sim)
        assert any("regressed" in p for p in problems)

    def test_engine_overlap(self):
        sim = self._sim_with(
            TimelineEvent("kernel", "a", 1.0, start=0.0, stream=0),
            TimelineEvent("kernel", "b", 1.0, start=0.5, stream=1),
        )
        problems = validate_timeline(sim)
        assert any("engine compute" in p for p in problems)

    def test_busy_seconds_match_is_checked_exactly(self):
        # engine_busy_seconds is derived from the same timeline, so a
        # clean run satisfies the identity exactly; the check exists to
        # catch a future scheduler that caches busy time separately.
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        sim.launch_timed("k", 1e-3)
        assert validate_timeline(sim) == []

    def test_elapsed_mismatch(self):
        sim = self._sim_with(
            TimelineEvent("host", "late", 1.0, start=10.0)
        )
        problems = validate_timeline(sim)
        assert any("makespan" in p for p in problems)

    def test_check_timeline_raises_with_all_problems(self):
        sim = self._sim_with(
            TimelineEvent("host", "bad", -1.0, start=5.0)
        )
        with pytest.raises(TimelineInvariantError) as exc:
            check_timeline(sim)
        assert "violation" in str(exc.value)
