"""Cross-engine agreement matrix: every implementation, one truth.

The package contains two 1-D engines and six 3-D paths.  They must
all compute the same transform; this suite pins them against each other
(and NumPy) across sizes and dtypes in one parametrized sweep.
"""

import numpy as np
import pytest

from repro.fft.cooley_tukey import fft_pow2
from repro.fft.stockham import stockham_fft

ENGINES_1D = {
    "four_step": fft_pow2,
    "stockham": stockham_fft,
}


@pytest.mark.parametrize("engine", sorted(ENGINES_1D), ids=str)
@pytest.mark.parametrize("n", [4, 32, 256])
class Test1DEngines:
    def test_forward_agreement(self, engine, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            ENGINES_1D[engine](x), np.fft.fft(x), rtol=1e-9, atol=1e-8
        )

    def test_inverse_agreement(self, engine, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            ENGINES_1D[engine](x, inverse=True) / n, np.fft.ifft(x), atol=1e-9
        )

    def test_single_precision(self, engine, n, rng):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(
            np.complex64
        )
        out = ENGINES_1D[engine](x)
        np.testing.assert_allclose(out, np.fft.fft(x), rtol=1e-4, atol=1e-3)


def three_d_paths():
    """(name, callable) pairs; each maps a (16,16,64) complex grid to its
    forward transform.  Cube-only paths (six-step, multi-GPU) are covered
    by :class:`TestCubePaths`."""
    from repro.baselines.cufft_model import cufft_fft3d
    from repro.core.five_step import FiveStepPlan
    from repro.core.out_of_core import OutOfCorePlan
    from repro.fft.plan import PlanND
    from repro.gpu.specs import GEFORCE_8800_GT

    shape = (16, 16, 64)
    return [
        ("host_plan", lambda x: PlanND(shape, precision="double").execute(x)),
        ("five_step",
         lambda x: FiveStepPlan(shape, precision="double").execute(x)),
        ("cufft_functional", cufft_fft3d),
        ("out_of_core",
         lambda x: OutOfCorePlan(shape, GEFORCE_8800_GT, n_slabs=4,
                                 precision="double").execute(x)),
    ]


@pytest.mark.parametrize(
    "name,fn", three_d_paths(), ids=[p[0] for p in three_d_paths()]
)
class Test3DPaths:
    def test_agreement(self, name, fn, rng):
        x = rng.standard_normal((16, 16, 64)) + 1j * rng.standard_normal(
            (16, 16, 64)
        )
        np.testing.assert_allclose(
            fn(x), np.fft.fftn(x), rtol=1e-9, atol=1e-8
        )


class TestCubePaths:
    """Paths constrained to cubes, on a 16^3 grid."""

    def test_multi_gpu_agrees(self, rng):
        from repro.core.multi_gpu import MultiGpuFFT3D

        x = rng.standard_normal((16, 16, 16)) + 0j
        out = MultiGpuFFT3D(16, 2, precision="double").execute(x)
        np.testing.assert_allclose(out, np.fft.fftn(x), atol=1e-9)

    def test_six_step_agrees(self, rng):
        from repro.baselines.six_step import SixStepPlan

        x = rng.standard_normal((16, 16, 16)) + 0j
        out = SixStepPlan(16, precision="double").execute(x)
        np.testing.assert_allclose(out, np.fft.fftn(x), atol=1e-9)

    def test_all_cube_paths_pairwise_identical_structure(self, rng):
        from repro.baselines.six_step import SixStepPlan
        from repro.core.five_step import FiveStepPlan

        x = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal(
            (16, 16, 16)
        )
        a = FiveStepPlan((16, 16, 16), precision="double").execute(x)
        b = SixStepPlan(16, precision="double").execute(x)
        np.testing.assert_allclose(a, b, atol=1e-10)
