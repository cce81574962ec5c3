"""Tests for multirow (batched, arbitrary-axis) transforms."""

import numpy as np
import pytest

from repro.fft.multirow import multirow_fft


class TestMultirowFft:
    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
    def test_each_axis_matches_numpy(self, axis, rng):
        x = rng.standard_normal((8, 16, 32)) + 1j * rng.standard_normal((8, 16, 32))
        np.testing.assert_allclose(
            multirow_fft(x, axis=axis), np.fft.fft(x, axis=axis),
            rtol=1e-10, atol=1e-9,
        )

    def test_result_contiguous(self, rng):
        x = rng.standard_normal((4, 8, 16)) + 0j
        assert multirow_fft(x, axis=0).flags.c_contiguous

    def test_inverse(self, rng):
        x = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        back = multirow_fft(multirow_fft(x, axis=0), axis=0, inverse=True) / 4
        np.testing.assert_allclose(back, x, atol=1e-11)

    def test_axis_out_of_range(self, rng):
        with pytest.raises(ValueError):
            multirow_fft(np.zeros((4, 4), complex), axis=2)

    def test_applying_along_all_axes_gives_fftn(self, rng):
        x = rng.standard_normal((8, 4, 16)) + 1j * rng.standard_normal((8, 4, 16))
        out = x
        for axis in range(3):
            out = multirow_fft(out, axis=axis)
        np.testing.assert_allclose(out, np.fft.fftn(x), rtol=1e-9, atol=1e-8)
