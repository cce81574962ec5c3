"""The zero-copy path against the copying path it replaces.

With no fault injector in scope the engines transform straight from the
caller's array into the result and only *charge* the transfers; an
in-scope ``FaultInjector()`` with no specs forces the copying path
(device buffers, real h2d/d2h, staging) without firing a single fault.
Everything observable must match between the two: the simulated
timeline event for event, the resilience counters, and the output bits.
The fused norm scale is checked against :func:`apply_norm` on inputs
whose spectra carry signed zeros, where a real-only scale would differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.core.five_step import FiveStepPlan
from repro.fft.normalization import apply_norm, scale_factor
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.jit import cc

SHAPE = (16, 16, 32)
N = 16 * 16 * 32
BATCH = 3
NORMS = ("backward", "ortho", "forward")
BACKENDS = (
    "numpy",
    pytest.param(
        "cjit",
        marks=pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH"),
    ),
)


def _grid(rng, shape=SHAPE) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


def _signed_zero_grid(shape=SHAPE) -> np.ndarray:
    """The constant ``-0 - 1j``: a spectrum of exact zeros of both signs.

    Off the DC term its inverse transform is all ``±0``, with ``-0``
    imaginary parts next to ``+0`` real ones, which is where ``y *= (s,
    0)`` and a real-only scale disagree (``(+0 - 0j) * (s, 0)`` has a
    ``+0`` imaginary part).
    """
    return np.full(shape, complex(-0.0, -1.0), np.complex64)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.complex64 else np.uint64)


def _engine(kind: str, norm: str, backend: str, copying: bool):
    # Fixed names keep the event labels comparable; verify=True on both
    # sides so the Parseval check runs under every norm.
    inj = FaultInjector() if copying else None
    cls = GpuFFT3D if kind == "single" else BatchedGpuFFT3D
    return cls(
        SHAPE, norm=norm, backend=backend, fault_injector=inj, verify=True, name="zc"
    )


def _timeline(engine) -> list[tuple]:
    return [
        (e.kind, e.label, e.seconds, e.bytes_moved, e.start, e.stream, e.faulted)
        for e in engine.simulator.events()
    ]


def _counters(engine) -> tuple:
    r = engine.resilience_report()
    return (
        r.attempts,
        dict(r.retries),
        r.checksum_failures,
        r.checkpoint_restores,
        r.device_resets,
        list(r.downgrades),
        r.backoff_seconds,
        r.fault_seconds,
        r.total_seconds,
    )


def _run(kind, norm, backend, copying, x, inverse):
    engine = _engine(kind, norm, backend, copying)
    if engine._plan.backend != "numpy":
        engine._plan.ensure_compiled()  # keep the one-off compile span out
    with engine:
        y = engine.inverse(x) if inverse else engine.forward(x)
        assert (engine.simulator.faults is not None) == copying
        return y, _timeline(engine), _counters(engine)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("kind", ["single", "batch"])
class TestPathsAgree:
    def _inputs(self, rng, kind):
        if kind == "single":
            return _grid(rng)
        return np.stack([_grid(rng) for _ in range(BATCH)])

    def test_timeline_counters_and_bits_match(self, rng, kind, inverse, norm, backend):
        x = self._inputs(rng, kind)
        zero = _run(kind, norm, backend, False, x, inverse)
        copy = _run(kind, norm, backend, True, x, inverse)
        assert zero[1] == copy[1]  # event for event
        assert zero[2] == copy[2]
        assert zero[2][1] == {}  # Parseval held with the fused scale
        assert np.array_equal(_bits(zero[0]), _bits(copy[0]))

    def test_caller_array_untouched_and_read_only_accepted(
        self, rng, kind, inverse, norm, backend
    ):
        x = self._inputs(rng, kind)
        keep = x.copy()
        x.setflags(write=False)
        for copying in (False, True):
            y, _, _ = _run(kind, norm, backend, copying, x, inverse)
            assert not np.shares_memory(y, x)
            assert np.array_equal(_bits(x), _bits(keep))

    def test_fused_scale_matches_apply_norm(self, kind, inverse, norm, backend):
        one = _signed_zero_grid()
        x = one if kind == "single" else np.stack([one] * BATCH)
        ref = FiveStepPlan(SHAPE).execute(one, inverse)
        ref = apply_norm(ref, N, norm, inverse)
        y, _, _ = _run(kind, norm, backend, False, x, inverse)
        for got in y if kind == "batch" else [y]:
            assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("backend", BACKENDS)
def test_signed_zero_input_tells_complex_from_real_scaling(backend):
    """The fused scale is ``y *= (s, 0)``, not ``re *= s; im *= s``.

    The test input makes the two differ, so a real-only scale fails here.
    """
    x = _signed_zero_grid()
    s = 1.0 / N
    plan = FiveStepPlan(SHAPE, backend=backend)
    raw = plan.execute(x, inverse=True)
    ref = apply_norm(raw.copy(), N, "backward", inverse=True)
    real_only = raw.copy()
    real_only.real *= np.float32(s)
    real_only.imag *= np.float32(s)
    assert not np.array_equal(_bits(real_only), _bits(ref))
    assert np.array_equal(_bits(plan.execute(x, True, scale=s)), _bits(ref))
    # A scale of exactly 1 leaves every bit alone (no (1, 0) multiply).
    assert np.array_equal(_bits(plan.execute(x, True, scale=1.0)), _bits(raw))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("kind", ["single", "out-of-core", "batch"])
def test_forced_host_returns_the_device_bits(rng, kind, inverse, norm, backend):
    """A degraded transform runs its engine's own plan on the host.

    So ``force_host`` returns the unfaulted device result bit for bit,
    into a fresh array, a separate ``out`` or ``out`` aliasing ``x``.
    """
    from dataclasses import replace

    from repro.gpu.specs import GEFORCE_8800_GT

    if kind == "out-of-core":
        shape = (64, 64, 64)
        engine = GpuFFT3D(
            shape, device=replace(GEFORCE_8800_GT, memory_mbytes=1),
            norm=norm, backend=backend,
        )
        assert engine.out_of_core
        x = _grid(rng, shape)
    elif kind == "single":
        engine = GpuFFT3D(SHAPE, norm=norm, backend=backend)
        x = _grid(rng)
    else:
        engine = BatchedGpuFFT3D(SHAPE, norm=norm, backend=backend)
        x = np.stack([_grid(rng) for _ in range(BATCH)])
    with engine:
        device = engine.execute(x, inverse)
        assert not engine.resilience_report().downgrades
        fresh = engine.execute(x, inverse, force_host=True)
        out = np.empty_like(x)
        assert engine.execute(x, inverse, force_host=True, out=out) is out
        inplace = x.copy()
        assert engine.execute(inplace, inverse, force_host=True, out=inplace) is inplace
        downgrades = engine.resilience_report().downgrades
    per_call = BATCH if kind == "batch" else 1
    assert downgrades == ["host-fallback: forced"] * (3 * per_call)
    for y in (fresh, out, inplace):
        assert np.array_equal(_bits(y), _bits(device))


class TestOut:
    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_bad_out_rejected(self, kind):
        shape = SHAPE if kind == "single" else (2, *SHAPE)
        x = np.ones(shape, np.complex64)
        cls = GpuFFT3D if kind == "single" else BatchedGpuFFT3D
        bad = [
            np.empty(shape[:-1] + (shape[-1] * 2,), np.complex64),  # shape
            np.empty(shape, np.complex128),  # dtype
            np.empty(shape[:-1] + (shape[-1] * 2,), np.complex64)[..., ::2],  # strides
            np.empty(shape, np.complex64).T.copy().T,  # Fortran order
        ]
        ro = np.empty(shape, np.complex64)
        ro.setflags(write=False)
        bad.append(ro)
        with cls(SHAPE) as engine:
            for out in bad:
                with pytest.raises(ValueError, match="out must be"):
                    engine.forward(x, out=out)
                with pytest.raises(ValueError, match="out must be"):
                    engine.execute(x, inverse=True, out=out)

    @pytest.mark.parametrize("copying", [False, True], ids=["zero-copy", "copying"])
    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_out_receives_result_in_place_too(self, rng, kind, copying):
        x = _grid(rng) if kind == "single" else np.stack([_grid(rng)] * 2)
        # backward: the energy scales by N * s**2 = 1/N, so an input
        # energy taken after the in-place launch would fail the check.
        ref = np.fft.ifftn(x, axes=(-3, -2, -1))
        cls = GpuFFT3D if kind == "single" else BatchedGpuFFT3D
        inj = FaultInjector() if copying else None
        with cls(SHAPE, fault_injector=inj, verify=True) as engine:
            out = np.empty_like(x)
            assert engine.inverse(x, out=out) is out
            np.testing.assert_allclose(out, ref, rtol=2e-5, atol=1e-6)
            inplace = x.copy()
            assert engine.inverse(inplace, out=inplace) is inplace
            assert np.array_equal(_bits(inplace), _bits(out))
            assert engine.resilience_report().retries == {}

    def test_faulted_in_place_recompute_reads_the_input(self, rng):
        # Transfer 0 uploads; transfers 1-4 are every attempt of the
        # download, all corrupted, so the transform is recomputed after
        # a corrupt payload already landed in out — which here is x.
        x = _grid(rng)
        ref = np.fft.fftn(x)
        specs = [FaultSpec("transfer-corrupt", at_ops=(1, 2, 3, 4))]
        inj = FaultInjector(specs, seed=3)
        with GpuFFT3D(SHAPE, fault_injector=inj) as plan:
            assert plan.forward(x, out=x) is x
            report = plan.resilience_report()
        assert report.checksum_failures == 4 and report.retries["ecc"] == 1
        np.testing.assert_allclose(x, ref, rtol=1e-4, atol=1e-3)

    def test_out_of_core_and_forced_host_fill_out(self, rng):
        from dataclasses import replace

        from repro.gpu.specs import GEFORCE_8800_GT

        tiny = replace(GEFORCE_8800_GT, memory_mbytes=1)
        x = _grid(rng, (64, 64, 64))
        ref = np.fft.fftn(x, norm="forward")
        with GpuFFT3D((64, 64, 64), device=tiny, norm="forward") as plan:
            assert plan.out_of_core
            out = np.empty_like(x)
            assert plan.forward(x, out=out) is out
            np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-7)
        with GpuFFT3D(SHAPE, norm="forward") as plan:
            y = _grid(rng)
            out = np.empty_like(y)
            assert plan.execute(y, force_host=True, out=out) is out
            np.testing.assert_allclose(
                out, np.fft.fftn(y, norm="forward"), rtol=1e-4, atol=1e-7
            )


class TestParsevalWithFusedScale:
    @pytest.mark.parametrize("norm", NORMS)
    def test_ecc_upset_still_caught_and_recomputed(self, rng, norm):
        x = _grid(rng)
        specs = [FaultSpec("ecc-bitflip", at_ops=(0,))]
        for cls in (GpuFFT3D, BatchedGpuFFT3D):
            inj = FaultInjector(specs, seed=14)
            with cls(SHAPE, norm=norm, fault_injector=inj) as engine:
                y = engine.inverse(x if cls is GpuFFT3D else x[None])
                report = engine.resilience_report()
            assert inj.fired_counts == {"ecc-bitflip": 1}
            assert report.retries == {"ecc": 1}, cls.__name__
            assert not report.downgrades
            np.testing.assert_allclose(
                y.reshape(SHAPE),
                np.fft.ifftn(x, norm=norm),
                rtol=2e-5,
                atol=1e-6 * scale_factor(N, norm, True) * np.sqrt(N),
            )
