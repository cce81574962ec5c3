"""Tests for the resilient execution layer (retries, checksums, checkpoints)."""

import zlib

import numpy as np
import pytest

from repro.core.out_of_core import OutOfCorePlan
from repro.core.resilient import (
    ResilienceReport,
    ResilientExecutor,
    RetryPolicy,
    checksum,
    energy_preserved,
    run_out_of_core,
)
from repro.gpu.faults import (
    CorruptionError,
    FaultInjector,
    FaultSpec,
    KernelLaunchError,
    TransferError,
)
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GT, GEFORCE_8800_GTX
from repro.jit import cc

needs_compiler = pytest.mark.skipif(
    not cc.available(), reason="no C compiler on PATH"
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_base_s=1e-4, backoff_factor=2.0, jitter=0.0)
        assert p.backoff_seconds(0, 0.5) == pytest.approx(1e-4)
        assert p.backoff_seconds(3, 0.5) == pytest.approx(8e-4)

    def test_jitter_brackets_nominal(self):
        p = RetryPolicy(backoff_base_s=1e-4, jitter=0.25)
        low = p.backoff_seconds(0, 0.0)
        high = p.backoff_seconds(0, 1.0)
        assert low == pytest.approx(0.75e-4)
        assert high == pytest.approx(1.25e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_device_resets=-1)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1, 0.5)


class TestChecksumAndEnergy:
    def test_checksum_detects_single_upset(self, rng):
        a = rng.standard_normal(256).astype(np.complex64)
        c = checksum(a)
        FaultInjector(seed=9).corrupt(a)
        assert checksum(a) != c

    def test_checksum_view_independent(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.complex64)
        assert checksum(a) == checksum(a.reshape(64))

    def test_energy_preserved_for_real_fft(self, rng):
        x = rng.standard_normal(1024).astype(np.complex64)
        y = np.fft.fft(x)
        e_in = float(np.vdot(x, x).real)
        e_out = float(np.vdot(y, y).real)
        assert energy_preserved(e_in, e_out, 1024.0)

    def test_energy_violated_by_upset(self, rng):
        x = rng.standard_normal(1024).astype(np.complex64)
        y = np.fft.fft(x)
        FaultInjector(seed=9).corrupt(y)
        e_in = float(np.vdot(x, x).real)
        e_out = float(np.vdot(y, y).real)
        assert not energy_preserved(e_in, e_out, 1024.0)


#: Every length 0-300 (all tails and fold entry points), a 32 KiB and an
#: odd 64 KiB payload, each at aligned and misaligned starts.
CRC_LENGTHS = [*range(301), 32 << 10, (64 << 10) + 5]
CRC_OFFSETS = (0, 1, 7)


def _crc_buffer() -> np.ndarray:
    return np.random.default_rng(20081115).integers(
        0, 256, (64 << 10) + 16, dtype=np.uint8
    )


class TestChecksumMatchesZlib:
    """``checksum`` is ``zlib.crc32`` bit for bit, on every path."""

    def test_every_length_and_offset(self):
        buf = _crc_buffer()
        for off in CRC_OFFSETS:
            for n in CRC_LENGTHS:
                a = buf[off : off + n]
                assert checksum(a) == zlib.crc32(a.tobytes()), (off, n)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_grids_and_non_contiguous_views(self, rng, dtype):
        x = (
            rng.standard_normal((16, 12, 10)) + 1j * rng.standard_normal((16, 12, 10))
        ).astype(dtype)
        for a in (x, x[::2], x.transpose(2, 0, 1), x[:, 1:7, ::3], x[3]):
            expected = zlib.crc32(np.ascontiguousarray(a).tobytes())
            assert checksum(a) == expected

    def test_no_compiler_path_gives_the_same_values(self, monkeypatch, rng):
        buf = _crc_buffer()
        x = rng.standard_normal((8, 8, 8)).astype(np.complex64)
        cases = [buf[1:300], buf[7 : 7 + (32 << 10)], x, x[:, ::2]]
        shipped = [checksum(a) for a in cases]
        monkeypatch.setattr(cc, "support", lambda: None)
        assert [checksum(a) for a in cases] == shipped

    @needs_compiler
    def test_compiled_crc_chains_like_zlib(self):
        unit = cc.support()
        if not unit.crc32_folds:
            pytest.skip("support unit built without PCLMULQDQ")
        buf = _crc_buffer()
        for off in CRC_OFFSETS:
            for n in (0, 15, 64, 100, 4096 + 3):
                a = buf[off : off + n]
                for start in (1, 0xDEADBEEF, 0xFFFFFFFF):
                    got = unit.crc32(a, start)
                    assert got == zlib.crc32(a.tobytes(), start), (off, n, start)

    @needs_compiler
    def test_compiled_crc_refuses_non_contiguous_arrays(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            cc.support().crc32(np.zeros(64, np.complex64)[::2])

    @needs_compiler
    def test_byte_table_build_matches_zlib(self, monkeypatch, tmp_path):
        """Built without host tuning (no ``__PCLMUL__``), ``repro_crc32``
        runs on its byte table alone, and ``checksum`` keeps to zlib."""
        import subprocess

        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        real_run = subprocess.run

        def untuned(cmd, **kwargs):
            if any(f in cmd for f in cc.TUNING_FLAGS):
                return subprocess.CompletedProcess(cmd, 1, "", "rejected")
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cc.subprocess, "run", untuned)
        unit = cc.SupportUnit(cc._build(cc._SUPPORT_SRC, "support"))
        assert not unit.crc32_folds
        buf = _crc_buffer()
        for off in CRC_OFFSETS:
            for n in CRC_LENGTHS:
                a = buf[off : off + n]
                assert unit.crc32(a) == zlib.crc32(a.tobytes()), (off, n)


class TestResilientExecutor:
    def make(self, specs=(), seed=0, **policy):
        inj = FaultInjector(specs, seed=seed) if specs else None
        sim = DeviceSimulator(GEFORCE_8800_GTX, fault_injector=inj)
        ex = ResilientExecutor(sim, RetryPolicy(**policy), ResilienceReport())
        return sim, ex

    def test_transfer_retry_succeeds(self, rng):
        sim, ex = self.make([FaultSpec("transfer-fail", at_ops=(0,))])
        dev = sim.allocate((64,), np.complex64, "d")
        host = rng.standard_normal(64).astype(np.complex64)
        ex.h2d(host, dev)
        np.testing.assert_array_equal(dev.data, host)
        assert ex.report.retries == {"transfer": 1}
        assert ex.report.attempts == 2
        assert sim.backoff_seconds > 0  # the wait was charged

    def test_transfer_retries_exhaust(self):
        sim, ex = self.make(
            [FaultSpec("transfer-fail", rate=1.0)], max_attempts=3
        )
        dev = sim.allocate((64,), np.complex64, "d")
        with pytest.raises(TransferError):
            ex.h2d(np.zeros(64, np.complex64), dev)
        assert ex.report.attempts == 3

    def test_corruption_detected_and_resent(self, rng):
        sim, ex = self.make([FaultSpec("transfer-corrupt", at_ops=(0,))], seed=4)
        dev = sim.allocate((64,), np.complex64, "d")
        host = rng.standard_normal(64).astype(np.complex64)
        ex.h2d(host, dev)
        np.testing.assert_array_equal(dev.data, host)
        assert ex.report.checksum_failures == 1
        assert ex.report.retries == {"corruption": 1}

    def test_corruption_exhaustion_raises(self):
        sim, ex = self.make(
            [FaultSpec("transfer-corrupt", rate=1.0)], seed=4, max_attempts=2
        )
        dev = sim.allocate((64,), np.complex64, "d")
        with pytest.raises(CorruptionError):
            ex.h2d(np.ones(64, np.complex64), dev)
        assert ex.report.checksum_failures == 2

    def test_d2h_checksummed(self, rng):
        sim, ex = self.make([FaultSpec("transfer-corrupt", at_ops=(1,))], seed=4)
        dev = sim.allocate((64,), np.complex64, "d")
        host = rng.standard_normal(64).astype(np.complex64)
        ex.h2d(host, dev)  # transfer op 0: clean
        out = np.empty(64, np.complex64)
        ex.d2h(dev, out, "back")  # op 1: corrupted, re-fetched
        np.testing.assert_array_equal(out, host)
        assert ex.report.checksum_failures == 1

    def test_launch_timed_retry(self):
        sim, ex = self.make([FaultSpec("launch-fail", at_ops=(0,))])
        ran = []
        ex.launch_timed("k", 1e-4, lambda: ran.append(1))
        assert ran == [1]
        assert ex.report.retries == {"launch": 1}

    def test_launch_exhaustion_raises(self):
        sim, ex = self.make([FaultSpec("launch-fail", rate=1.0)], max_attempts=2)
        with pytest.raises(KernelLaunchError):
            ex.launch_timed("k", 1e-4)

    def test_zero_faults_zero_overhead(self, rng):
        sim, ex = self.make()
        dev = sim.allocate((64,), np.complex64, "d")
        host = rng.standard_normal(64).astype(np.complex64)
        ex.h2d(host, dev)
        ex.launch_timed("k", 1e-4)
        out = np.empty(64, np.complex64)
        ex.d2h(dev, out)
        bare = DeviceSimulator(GEFORCE_8800_GTX)
        bdev = bare.allocate((64,), np.complex64, "d")
        bare.h2d(host, bdev)
        bare.launch_timed("k", 1e-4)
        bare.d2h(bdev, out)
        assert sim.elapsed == pytest.approx(bare.elapsed)
        assert sim.backoff_seconds == 0.0


class TestResilienceReport:
    def test_summary_mentions_everything(self):
        r = ResilienceReport(attempts=5, checksum_failures=1, device_resets=2)
        r.note_retry("transfer")
        r.downgrades.append("host-fallback: test")
        text = r.summary()
        for needle in ("attempts", "retries", "checksum", "restores",
                       "resets", "host-fallback"):
            assert needle in text

    def test_useful_seconds_excludes_losses(self):
        r = ResilienceReport(
            backoff_seconds=0.2, fault_seconds=0.3, total_seconds=1.0
        )
        assert r.useful_seconds == pytest.approx(0.5)
        assert not r.degraded
        r.downgrades.append("replan")
        assert r.degraded

    def test_capture_timeline_syncs_clock(self):
        sim = DeviceSimulator(GEFORCE_8800_GTX)
        sim.charge("work", 0.25)
        sim.charge("wait", 0.05, kind="backoff")
        r = ResilienceReport().capture_timeline(sim)
        assert r.total_seconds == pytest.approx(0.30)
        assert r.backoff_seconds == pytest.approx(0.05)


class TestRunOutOfCore:
    def make_plan(self):
        from dataclasses import replace

        tiny = replace(GEFORCE_8800_GT, memory_mbytes=1)
        plan = OutOfCorePlan((32, 32, 32), tiny, n_slabs=4)
        assert not plan.fits_in_core
        return plan

    def executor(self, specs=(), seed=0, **policy):
        inj = FaultInjector(specs, seed=seed) if specs else None
        sim = DeviceSimulator(self.make_plan().device, fault_injector=inj)
        return ResilientExecutor(sim, RetryPolicy(**policy), ResilienceReport())

    def test_matches_fftn(self, rng):
        plan = self.make_plan()
        ex = self.executor()
        x = (rng.standard_normal(plan.shape) + 0j).astype(np.complex64)
        out = run_out_of_core(plan, plan.estimate(), x, ex)
        ref = np.fft.fftn(x.astype(np.complex128))
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-5

    def test_timeline_matches_estimate(self, rng):
        plan = self.make_plan()
        ex = self.executor()
        est = plan.estimate()
        x = (rng.standard_normal(plan.shape) + 0j).astype(np.complex64)
        run_out_of_core(plan, est, x, ex)
        assert ex.sim.elapsed == pytest.approx(est.total_seconds)
        assert ex.sim.transfer_seconds == pytest.approx(est.transfer_seconds)

    def test_device_lost_resumes_from_checkpoint(self, rng):
        plan = self.make_plan()
        # Stage 1 does one h2d + one d2h per slab; op 4 is slab 2's h2d.
        ex = self.executor(
            [FaultSpec("device-lost", at_ops=(4,), category="transfer")]
        )
        x = (rng.standard_normal(plan.shape) + 0j).astype(np.complex64)
        out = run_out_of_core(plan, plan.estimate(), x, ex)
        ref = np.fft.fftn(x.astype(np.complex128))
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-5
        assert ex.report.checkpoint_restores == 1
        # Completed slabs were not recomputed: each stage-1 FFT ran once.
        fft_labels = [
            e.label
            for e in ex.sim.events()
            if e.kind == "kernel" and not e.faulted and "s1-fft" in e.label
        ]
        assert len(fft_labels) == len(set(fft_labels)) == plan.n_slabs

    def test_repeated_loss_propagates(self, rng):
        plan = self.make_plan()
        ex = self.executor(
            [FaultSpec("device-lost", rate=1.0, category="transfer")],
            max_device_resets=1,
        )
        from repro.gpu.faults import DeviceLostError

        x = (rng.standard_normal(plan.shape) + 0j).astype(np.complex64)
        with pytest.raises(DeviceLostError):
            run_out_of_core(plan, plan.estimate(), x, ex)
        # Two losses, one reset: the second loss exhausts the budget.
        assert ex.report.device_resets == ex.sim.device_resets == 1

    def test_ecc_upset_caught_by_verify(self, rng):
        plan = self.make_plan()
        ex = self.executor([FaultSpec("ecc-bitflip", at_ops=(1,))], seed=11)
        x = (rng.standard_normal(plan.shape) + 0j).astype(np.complex64)
        out = run_out_of_core(plan, plan.estimate(), x, ex, verify=True)
        ref = np.fft.fftn(x.astype(np.complex128))
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-5
        assert ex.report.retries.get("ecc", 0) >= 1

    def test_wrong_shape_rejected(self):
        plan = self.make_plan()
        ex = self.executor()
        with pytest.raises(ValueError):
            run_out_of_core(
                plan, plan.estimate(), np.zeros((16, 16, 16), np.complex64), ex
            )
