"""Tests for Plan1D / PlanND and normalization conventions."""

import numpy as np
import pytest

from repro.fft.normalization import NORMS, apply_norm, scale_factor
from repro.fft.plan import Plan1D, PlanND


class TestScaleFactor:
    def test_backward_forward_is_one(self):
        assert scale_factor(64, "backward", inverse=False) == 1.0

    def test_backward_inverse_is_one_over_n(self):
        assert scale_factor(64, "backward", inverse=True) == pytest.approx(1 / 64)

    def test_ortho_symmetric(self):
        assert scale_factor(64, "ortho", False) == scale_factor(64, "ortho", True)

    def test_forward_norm(self):
        assert scale_factor(8, "forward", False) == pytest.approx(1 / 8)
        assert scale_factor(8, "forward", True) == 1.0

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            scale_factor(8, "weird", False)

    def test_apply_norm_in_place(self):
        x = np.ones(4, np.complex128)
        out = apply_norm(x, 4, "backward", inverse=True)
        assert out is x
        np.testing.assert_allclose(x, 0.25)


class TestPlan1D:
    def test_matches_numpy(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        plan = Plan1D(64)
        np.testing.assert_allclose(plan.execute(x), np.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("norm", NORMS)
    def test_norms_match_numpy(self, norm, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        plan = Plan1D(32, norm=norm)
        np.testing.assert_allclose(
            plan.execute(x), np.fft.fft(x, norm=norm), atol=1e-10
        )
        np.testing.assert_allclose(
            plan.execute(x, inverse=True), np.fft.ifft(x, norm=norm), atol=1e-10
        )

    def test_reusable(self, rng):
        plan = Plan1D(16)
        for _ in range(3):
            x = rng.standard_normal(16) + 0j
            np.testing.assert_allclose(plan.execute(x), np.fft.fft(x), atol=1e-11)

    def test_size_validated_at_execute(self):
        plan = Plan1D(16)
        with pytest.raises(ValueError, match="16"):
            plan.execute(np.zeros(32, complex))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Plan1D(12)

    def test_single_precision(self, rng):
        plan = Plan1D(64, precision="single")
        x = rng.standard_normal(64).astype(np.float32)
        out = plan.execute(x)
        assert out.dtype == np.complex64

    def test_flops_convention(self):
        assert Plan1D(256).flops == 5 * 256 * 8


class TestPlanND:
    def test_matches_fftn(self, rng):
        x = rng.standard_normal((8, 4, 16)) + 1j * rng.standard_normal((8, 4, 16))
        plan = PlanND((8, 4, 16))
        np.testing.assert_allclose(plan.execute(x), np.fft.fftn(x), rtol=1e-9, atol=1e-8)

    def test_inverse_matches_ifftn(self, rng):
        x = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        plan = PlanND((4, 8))
        np.testing.assert_allclose(
            plan.execute(x, inverse=True), np.fft.ifftn(x), atol=1e-11
        )

    def test_ortho_roundtrip_preserves_norm(self, rng):
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        plan = PlanND((8, 8), norm="ortho")
        out = plan.execute(x)
        np.testing.assert_allclose(
            np.linalg.norm(out), np.linalg.norm(x), rtol=1e-12
        )

    def test_shape_validated(self):
        plan = PlanND((4, 4))
        with pytest.raises(ValueError):
            plan.execute(np.zeros((4, 8), complex))

    def test_flops(self):
        plan = PlanND((256, 256, 256))
        assert plan.flops == pytest.approx(15 * 256**3 * 8)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            PlanND(())
