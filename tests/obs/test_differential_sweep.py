"""Property-based differential sweep: random configs vs numpy.fft.fftn.

A seeded ``numpy.random`` generator draws plan configurations (shape,
norm, precision, execution path) and every draw is checked two ways:

* the simulated GPU result matches ``numpy.fft.fftn`` within the
  precision's tolerance, including through the batched pipeline and a
  fault-injected run that exercises retry/verify recovery;
* running the identical workload with a :class:`repro.obs.Profiler`
  attached returns **bit-identical** results — observability is a pure
  projection of the timeline, never a participant in it.

No hypothesis/external property-testing dependency: the draw set is a
deterministic function of the module-level seed, so failures reproduce
by test id alone.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.core.five_step import FiveStepPlan
from repro.core.out_of_core import OutOfCorePlan
from repro.core.workspace import Workspace
from repro.fft.normalization import apply_norm
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.obs.profiler import Profiler

_SHAPES = [
    (16, 16, 16),
    (32, 16, 16),
    (16, 32, 16),
    (16, 16, 32),
    (32, 32, 32),
]
_NORMS = ["backward", "ortho", "forward"]
_PRECISIONS = ["single", "double"]

#: rel/abs tolerance per precision for the numpy comparison.  Single
#: precision loses ~3 digits over a 32^3 five-step pipeline.
_TOL = {"single": 2e-3, "double": 1e-10}


@dataclass(frozen=True)
class SweepCase:
    """One drawn configuration of the differential sweep."""

    shape: tuple[int, int, int]
    norm: str
    precision: str
    batch: int
    seed: int

    @property
    def id(self) -> str:
        z, y, x = self.shape
        return f"{z}x{y}x{x}-{self.norm}-{self.precision}-b{self.batch}-s{self.seed}"


def _draw_cases(n: int, seed: int) -> list[SweepCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        cases.append(
            SweepCase(
                shape=_SHAPES[rng.integers(len(_SHAPES))],
                norm=_NORMS[rng.integers(len(_NORMS))],
                precision=_PRECISIONS[rng.integers(len(_PRECISIONS))],
                batch=int(rng.integers(2, 5)),
                seed=int(rng.integers(1 << 16)),
            )
        )
    return cases


CASES = _draw_cases(n=6, seed=20080815)  # SC'08 vintage


def _signal(case: SweepCase, batched: bool = False) -> np.ndarray:
    rng = np.random.default_rng(case.seed)
    shape = (case.batch, *case.shape) if batched else case.shape
    dtype = np.complex64 if case.precision == "single" else np.complex128
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(dtype)


def _injector(case: SweepCase) -> FaultInjector:
    """A deterministic multi-kind fault schedule derived from the case."""
    return FaultInjector(
        [
            FaultSpec("transfer-fail", at_ops=(1,)),
            FaultSpec("transfer-corrupt", at_ops=(4,)),
            FaultSpec("launch-fail", at_ops=(3,)),
        ],
        seed=case.seed,
    )


def _assert_close(out: np.ndarray, ref: np.ndarray, case: SweepCase) -> None:
    tol = _TOL[case.precision]
    scale = np.max(np.abs(ref)) or 1.0
    np.testing.assert_allclose(out / scale, ref / scale, atol=tol, rtol=tol)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
class TestAgainstNumpy:
    def test_single_plan(self, case):
        x = _signal(case)
        with GpuFFT3D(
            case.shape, precision=case.precision, norm=case.norm
        ) as plan:
            out = plan.forward(x)
        _assert_close(out, np.fft.fftn(x, norm=case.norm), case)

    def test_batched_pipeline(self, case):
        xs = _signal(case, batched=True)
        with BatchedGpuFFT3D(
            case.shape, precision=case.precision, norm=case.norm, n_streams=2
        ) as plan:
            out = plan.forward(xs)
        ref = np.stack([np.fft.fftn(x, norm=case.norm) for x in xs])
        _assert_close(out, ref, case)

    def test_resilient_with_faults(self, case):
        x = _signal(case)
        with GpuFFT3D(
            case.shape,
            precision=case.precision,
            norm=case.norm,
            fault_injector=_injector(case),
        ) as plan:
            out = plan.forward(x)
            assert plan.resilience.total_retries >= 1
        _assert_close(out, np.fft.fftn(x, norm=case.norm), case)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
class TestTracingIsPureProjection:
    """Tracing on vs off: bit-identical outputs and timelines."""

    def test_single_plan_bit_identical(self, case):
        x = _signal(case)

        def run(profiler):
            with GpuFFT3D(
                case.shape,
                precision=case.precision,
                norm=case.norm,
                profiler=profiler,
                name="diff-single",
            ) as plan:
                out = plan.forward(x)
                events = plan.simulator.events()
            return out, events

        plain, plain_events = run(None)
        with Profiler() as prof:
            traced, traced_events = run(prof)
        assert np.array_equal(plain, traced)
        assert plain_events == traced_events
        assert len(prof.tracer) == len(traced_events)

    def test_faulted_batch_bit_identical(self, case):
        xs = _signal(case, batched=True)

        def run(profiler):
            with BatchedGpuFFT3D(
                case.shape,
                precision=case.precision,
                norm=case.norm,
                n_streams=2,
                fault_injector=_injector(case),
                profiler=profiler,
                name="diff-batch",
            ) as plan:
                out = plan.forward(xs)
                events = plan.simulator.events()
            return out, events

        plain, plain_events = run(None)
        with Profiler() as prof:
            traced, traced_events = run(prof)
        assert np.array_equal(plain, traced)
        assert plain_events == traced_events


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
class TestPoolingIsPureOptimization:
    """The workspace arena: bit-identical to the unpooled reference.

    The pooled path writes through arena buffers and fuses the twiddle
    multiplies into the transpose stores; it must be an *optimization*
    only — every value identical to the unpooled
    :meth:`FiveStepPlan.execute`, forward and inverse.  The engines
    always pool, so their results are checked against that reference.
    """

    def test_single_plan_bit_identical(self, case):
        x = _signal(case)
        plan = FiveStepPlan(case.shape, precision=case.precision)
        ws = Workspace()
        for inverse in (False, True):
            out = np.empty_like(x)
            pooled = plan.execute(x, inverse=inverse, workspace=ws, out=out)
            assert pooled is out
            assert np.array_equal(pooled, plan.execute(x, inverse=inverse))

    def test_batched_pipeline_bit_identical(self, case):
        """The batched engine's mode: every entry in place (``out``
        aliases the input) through one shared arena."""
        xs = _signal(case, batched=True)
        plan = FiveStepPlan(case.shape, precision=case.precision)
        ws = Workspace()
        pooled = xs.copy()
        for buf in pooled:
            plan.execute(buf, workspace=ws, out=buf)
        for x, out in zip(xs, pooled):
            assert np.array_equal(out, plan.execute(x))

    def test_faulted_run_bit_identical(self, case):
        """Retried transfers and launches re-acquire arena buffers; the
        spectrum is still the unpooled reference's, bit for bit."""
        x = _signal(case)
        with GpuFFT3D(
            case.shape,
            precision=case.precision,
            norm=case.norm,
            fault_injector=_injector(case),
        ) as plan:
            out = plan.forward(x)
            assert plan.resilience.total_retries >= 1
            assert not plan.resilience.downgrades
        ref = FiveStepPlan(case.shape, precision=case.precision).execute(x)
        n = int(np.prod(case.shape))
        assert np.array_equal(out, apply_norm(ref, n, case.norm, False))

    def test_out_of_core_bit_identical(self, case):
        x = _signal(case)
        plan = OutOfCorePlan(
            case.shape, GEFORCE_8800_GTX, n_slabs=2, precision=case.precision
        )
        assert not plan.fits_in_core
        ref = plan.execute(x)
        assert np.array_equal(plan.execute(x, workspace=Workspace()), ref)

    def test_parallel_serve_bit_identical(self, case):
        from repro.serve.request import FFTRequest
        from repro.serve.server import FFTServer

        xs = _signal(case, batched=True)

        def run(n_workers):
            with FFTServer(start=False, n_workers=n_workers) as srv:
                futs = [
                    srv.submit(
                        FFTRequest(
                            x=x, precision=case.precision, norm=case.norm
                        )
                    )
                    for x in xs
                ]
                srv.run_pending()
                return [f.result(timeout=30) for f in futs]

        serial = run(1)
        pooled = run(4)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a, b)


def _jit_backend() -> str | None:
    """The concrete compiled backend for this machine, or None."""
    from repro import jit

    resolved = jit.resolve_backend("auto")
    return None if resolved == "numpy" else resolved


def _assert_jit_equivalent(jitted: np.ndarray, ref: np.ndarray) -> None:
    """Bit-identical: cjit's complex multiply is probed against NumPy."""
    rdt = np.float32 if ref.dtype == np.complex64 else np.float64
    assert np.array_equal(jitted.view(rdt), ref.view(rdt))


@pytest.mark.skipif(
    _jit_backend() is None, reason="no compiled backend on this machine"
)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
class TestJitIsPureOptimization:
    """JIT backend on vs off: same spectra on every execution path.

    The compiled hot path must be an *optimization* only — cjit matches
    the NumPy reference bit-for-bit (its complex multiply is probed
    against the hardware) across the single-plan, batched, unpooled and
    faulted paths.
    """

    def test_single_plan_forward_and_inverse(self, case):
        x = _signal(case)

        def run(backend):
            with GpuFFT3D(
                case.shape,
                precision=case.precision,
                norm=case.norm,
                backend=backend,
            ) as plan:
                fwd = plan.forward(x)
                return fwd, plan.inverse(fwd)

        f0, i0 = run("numpy")
        f1, i1 = run("auto")
        _assert_jit_equivalent(f1, f0)
        _assert_jit_equivalent(i1, i0)

    def test_batched_pipeline(self, case):
        xs = _signal(case, batched=True)

        def run(backend):
            with BatchedGpuFFT3D(
                case.shape,
                precision=case.precision,
                norm=case.norm,
                n_streams=2,
                backend=backend,
            ) as plan:
                return plan.forward(xs)

        _assert_jit_equivalent(run("auto"), run("numpy"))

    def test_unpooled_path(self, case):
        x = _signal(case)

        def run(backend):
            plan = FiveStepPlan(case.shape, precision=case.precision, backend=backend)
            return plan.execute(x)

        _assert_jit_equivalent(run("auto"), run("numpy"))

    def test_faulted_run(self, case):
        x = _signal(case)

        def run(backend):
            with GpuFFT3D(
                case.shape,
                precision=case.precision,
                norm=case.norm,
                fault_injector=_injector(case),
                backend=backend,
            ) as plan:
                return plan.forward(x)

        _assert_jit_equivalent(run("auto"), run("numpy"))

    def test_parallel_serve(self, case):
        from repro.serve.request import FFTRequest
        from repro.serve.server import FFTServer

        xs = _signal(case, batched=True)

        def run(backend, n_workers):
            with FFTServer(
                start=False, n_workers=n_workers, backend=backend
            ) as srv:
                futs = [
                    srv.submit(
                        FFTRequest(
                            x=x, precision=case.precision, norm=case.norm
                        )
                    )
                    for x in xs
                ]
                srv.run_pending()
                return [f.result(timeout=30) for f in futs]

        for ref, jit_out in zip(run("numpy", 1), run("auto", 4)):
            _assert_jit_equivalent(jit_out, ref)
