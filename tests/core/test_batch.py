"""Tests for the batched, stream-pipelined execution engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D, gpu_fft3d_batch
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GT, GEFORCE_8800_GTX

N = 32
B = 8
SHAPE = (N, N, N)


def _batch(rng, b=B, n=N):
    return (
        rng.standard_normal((b, n, n, n)) + 1j * rng.standard_normal((b, n, n, n))
    ).astype(np.complex64)


def _refs(xs, inverse=False):
    fn = np.fft.ifftn if inverse else np.fft.fftn
    scale = np.prod(xs.shape[1:]) if inverse else 1  # undo numpy's 1/n
    return np.stack([fn(x.astype(np.complex128)) * scale for x in xs])


def _assert_close(outs, refs, tol=1e-5):
    scale = np.abs(refs).max()
    assert np.abs(outs - refs).max() / scale < tol


class TestCorrectness:
    def test_forward_matches_fftn_per_entry(self, rng):
        xs = _batch(rng)
        with BatchedGpuFFT3D(SHAPE) as engine:
            outs = engine.forward(xs)
        assert outs.shape == xs.shape and outs.dtype == np.complex64
        _assert_close(outs, _refs(xs))

    def test_inverse_roundtrip(self, rng):
        xs = _batch(rng, b=3)
        with BatchedGpuFFT3D(SHAPE) as engine:
            back = engine.inverse(engine.forward(xs))  # backward: 1/n on inverse
        _assert_close(back, xs.astype(np.complex128))

    def test_sequence_input_and_helper(self, rng):
        xs = [x for x in _batch(rng, b=3)]
        outs = gpu_fft3d_batch(xs)
        _assert_close(outs, _refs(np.stack(xs)))

    def test_empty_batch(self):
        with BatchedGpuFFT3D(SHAPE) as engine:
            outs = engine.forward(np.empty((0, N, N, N), np.complex64))
        assert outs.shape == (0, N, N, N)

    def test_wrong_entry_shape_rejected(self, rng):
        with BatchedGpuFFT3D(SHAPE) as engine:
            with pytest.raises(ValueError, match="batch entry"):
                engine.forward(np.zeros((2, N, N, 2 * N), np.complex64))

    def test_out_of_core_shape_rejected(self):
        with pytest.raises(ValueError, match="in-core only"):
            BatchedGpuFFT3D((512, 512, 512))


class TestNormalization:
    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_norm_roundtrip_batched(self, rng, norm):
        xs = _batch(rng, b=2)
        with BatchedGpuFFT3D(SHAPE, norm=norm) as engine:
            back = engine.inverse(engine.forward(xs))
        _assert_close(back, xs.astype(np.complex128))

    def test_ortho_matches_numpy(self, rng):
        xs = _batch(rng, b=2)
        refs = np.stack(
            [np.fft.fftn(x.astype(np.complex128), norm="ortho") for x in xs]
        )
        with BatchedGpuFFT3D(SHAPE, norm="ortho") as engine:
            _assert_close(engine.forward(xs), refs)

    def test_forward_norm_matches_numpy(self, rng):
        xs = _batch(rng, b=2)
        refs = np.stack(
            [np.fft.fftn(x.astype(np.complex128), norm="forward") for x in xs]
        )
        with BatchedGpuFFT3D(SHAPE, norm="forward") as engine:
            _assert_close(engine.forward(xs), refs)


class TestPipelining:
    def test_pipelined_beats_sequential_by_acceptance_bar(self, rng):
        """ISSUE acceptance: 8 pipelined cubes >= 1.3x faster than 8
        sequential GpuFFT3D.execute calls in simulated time."""
        xs = _batch(rng)
        with GpuFFT3D(SHAPE) as plan:
            for x in xs:
                plan.execute(x)
            seq = plan.simulator.elapsed
        with BatchedGpuFFT3D(SHAPE) as engine:
            engine.forward(xs)
            pipe = engine.simulator.elapsed
        assert seq / pipe >= 1.3

    def test_elapsed_less_than_engine_busy_sum(self, rng):
        with BatchedGpuFFT3D(SHAPE) as engine:
            engine.forward(_batch(rng))
            report = engine.pipeline_report()
        busy_sum = report["h2d"] + report["compute"] + report["d2h"]
        assert report["elapsed"] < busy_sum
        assert report["elapsed"] >= max(
            report["h2d"], report["compute"], report["d2h"]
        )

    def test_single_stream_degenerates_to_sequential(self, rng):
        """Depth 1 reuses one buffer pair: no overlap is possible."""
        xs = _batch(rng, b=4)
        with BatchedGpuFFT3D(SHAPE, n_streams=1) as engine:
            engine.forward(xs)
            serial = engine.pipeline_report()
        with BatchedGpuFFT3D(SHAPE, n_streams=3) as engine:
            engine.forward(xs)
            piped = engine.pipeline_report()
        assert serial["elapsed"] > piped["elapsed"]
        assert serial["elapsed"] == pytest.approx(
            serial["h2d"] + serial["compute"] + serial["d2h"]
        )

    def test_slots_lazy_and_bounded(self, rng):
        engine = BatchedGpuFFT3D(SHAPE, n_streams=3)
        assert engine.n_slots == 0
        engine.forward(_batch(rng, b=2))
        assert engine.n_slots == 2  # small batch allocates only what it needs
        engine.forward(_batch(rng, b=8))
        assert engine.n_slots == 3  # grows to n_streams, never beyond
        engine.close()


class TestSmallBatchEdgeCases:
    """Regression coverage: empty batches and batches below n_streams."""

    def test_empty_batch_does_no_device_work(self):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        with BatchedGpuFFT3D(SHAPE, simulator=sim) as engine:
            outs = engine.forward(np.empty((0, N, N, N), np.complex64))
        assert outs.shape == (0, N, N, N)
        assert outs.dtype == np.complex64
        assert sim.elapsed == 0.0
        assert engine.n_slots == 0  # no buffers were ever allocated

    def test_empty_batch_double_precision_dtype(self):
        with BatchedGpuFFT3D(SHAPE, precision="double") as engine:
            outs = engine.forward(np.empty((0, N, N, N), np.complex128))
        assert outs.shape == (0, N, N, N)
        assert outs.dtype == np.complex128

    @pytest.mark.parametrize("b", [1, 2])
    def test_batch_below_n_streams_is_correct(self, rng, b):
        xs = _batch(rng, b=b)
        with BatchedGpuFFT3D(SHAPE, n_streams=3) as engine:
            outs = engine.forward(xs)
            assert engine.n_slots == b
        _assert_close(outs, _refs(xs))

    def test_slot_count_never_shrinks(self, rng):
        with BatchedGpuFFT3D(SHAPE, n_streams=3) as engine:
            engine.forward(_batch(rng, b=3))
            assert engine.n_slots == 3
            engine.forward(_batch(rng, b=1))  # reuses the warm slots
            assert engine.n_slots == 3


class TestBufferLifetime:
    def test_close_frees_device_buffers(self, rng):
        engine = BatchedGpuFFT3D(SHAPE)
        engine.forward(_batch(rng, b=2))
        assert engine.simulator.used_bytes > 0
        engine.close()
        assert engine.simulator.used_bytes == 0

    def test_partial_slot_is_freed(self, rng):
        # 3 MiB card, 1 MiB buffers: slot 0 takes 2 MiB, slot 1's V fits
        # but its WORK does not, so the pipeline stops at one slot and
        # must not strand the V it already allocated.
        card = replace(GEFORCE_8800_GT, memory_mbytes=3)
        xs = (rng.standard_normal((3, 32, 64, 64)) + 0j).astype(np.complex64)
        engine = BatchedGpuFFT3D((32, 64, 64), device=card)
        outs = engine.forward(xs)
        assert engine.n_slots == 1
        assert engine.simulator.used_bytes == 2 * 2**20
        engine.close()
        assert engine.simulator.used_bytes == 0
        _assert_close(outs, _refs(xs))

    def test_exhausted_work_allocation_frees_v(self, rng):
        # Slot 0's V is allocation op 0; ops 1-4 fail WORK through every
        # attempt.  Entry 0 degrades, and entry 1 must be able to
        # allocate slot 0 afresh instead of finding a stranded V.
        inj = FaultInjector([FaultSpec("alloc-fail", at_ops=(1, 2, 3, 4))])
        xs = _batch(rng, b=2)
        engine = BatchedGpuFFT3D(SHAPE, fault_injector=inj)
        outs = engine.forward(xs)
        assert engine.resilience.downgrades == ["host-fallback: AllocationError"]
        engine.close()
        assert engine.simulator.used_bytes == 0
        _assert_close(outs, _refs(xs))

    def test_context_manager_frees_buffers(self, rng):
        with BatchedGpuFFT3D(SHAPE) as engine:
            engine.forward(_batch(rng, b=2))
        assert engine.simulator.used_bytes == 0

    def test_engine_reusable_after_close(self, rng):
        xs = _batch(rng, b=2)
        engine = BatchedGpuFFT3D(SHAPE)
        engine.forward(xs)
        engine.close()
        outs = engine.forward(xs)
        _assert_close(outs, _refs(xs))
        engine.close()


class TestFaultIsolation:
    def test_corrupt_transfer_on_one_entry_leaves_neighbours_intact(self, rng):
        """A fault on entry i must not corrupt entries i-1 or i+1."""
        xs = _batch(rng, b=4)
        inj = FaultInjector([FaultSpec("transfer-corrupt", at_ops=(2,))], seed=5)
        with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as engine:
            outs = engine.forward(xs)
            report = engine.resilience_report()
        _assert_close(outs, _refs(xs))
        assert report.checksum_failures >= 1

    def test_device_lost_mid_batch_recovers(self, rng):
        xs = _batch(rng, b=4)
        inj = FaultInjector(
            [FaultSpec("device-lost", at_ops=(5,), category="transfer")], seed=3
        )
        with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as engine:
            outs = engine.forward(xs)
            report = engine.resilience_report()
        _assert_close(outs, _refs(xs))
        assert report.device_resets >= 1

    def test_persistent_device_loss_degrades_to_host(self, rng):
        xs = _batch(rng, b=3)
        inj = FaultInjector(
            [FaultSpec("device-lost", rate=1.0, category="transfer")], seed=2
        )
        with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as engine:
            outs = engine.forward(xs)
            report = engine.resilience_report()
        _assert_close(outs, _refs(xs))
        assert len(report.downgrades) == len(xs)
        assert all("host-fallback" in d for d in report.downgrades)

    def test_launch_fail_retried(self, rng):
        xs = _batch(rng, b=2)
        inj = FaultInjector([FaultSpec("launch-fail", at_ops=(1,))], seed=9)
        with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as engine:
            outs = engine.forward(xs)
            report = engine.resilience_report()
        _assert_close(outs, _refs(xs))
        assert report.retries.get("launch", 0) >= 1

    def test_injector_scoped_to_this_engine_on_shared_simulator(self, rng):
        """Satellite regression writ batch-sized: constructing a faulty
        batch engine on a shared simulator leaves siblings fault-free."""
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        inj = FaultInjector([FaultSpec("launch-fail", rate=1.0)], seed=1)
        engine = BatchedGpuFFT3D(SHAPE, simulator=sim, fault_injector=inj)
        assert sim.faults is None  # not attached outside the engine's runs
        sibling = GpuFFT3D((16, 16, 16), simulator=sim)
        x = (rng.standard_normal((16, 16, 16)) + 0j).astype(np.complex64)
        sibling.forward(x)  # would raise after retries if injection leaked
        assert sibling.resilience_report().total_retries == 0
        engine.close()
        sibling.release()

    def test_conflicting_injectors_on_shared_simulator_rejected(self):
        a = FaultInjector([FaultSpec("launch-fail", rate=1.0)], seed=1)
        b = FaultInjector([FaultSpec("launch-fail", rate=1.0)], seed=2)
        sim = DeviceSimulator(GEFORCE_8800_GTX, fault_injector=a)
        with pytest.raises(ValueError, match="injector"):
            BatchedGpuFFT3D(SHAPE, simulator=sim, fault_injector=b)

    def test_faulty_run_frees_buffers_on_close(self, rng):
        xs = _batch(rng, b=3)
        inj = FaultInjector(
            [FaultSpec("device-lost", at_ops=(5,), category="transfer")], seed=3
        )
        with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as engine:
            engine.forward(xs)
        assert engine.simulator.used_bytes == 0


@pytest.mark.slow
class TestLargeGrid:
    """Paper-scale grid through the pipeline (heavier: run in the slow tier)."""

    def test_64cubed_batch(self, rng):
        xs = _batch(rng, b=4, n=64)
        with BatchedGpuFFT3D((64, 64, 64)) as engine:
            outs = engine.forward(xs)
            report = engine.pipeline_report()
        _assert_close(outs, _refs(xs))
        assert report["elapsed"] < report["h2d"] + report["compute"] + report["d2h"]
