"""Fundamental DFT identities, property-tested across engines.

Beyond matching NumPy: the transforms must satisfy the defining algebraic
identities of the DFT itself — time reversal, conjugation symmetry,
modulation/shift duality, Plancherel — for random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fft.cooley_tukey import fft_pow2
from repro.fft.stockham import stockham_fft

ENGINES = {
    "four_step": fft_pow2,
    "stockham": stockham_fft,
}

N = 64


def _x(seed: int, n: int = N) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("engine", sorted(ENGINES), ids=str)
class TestDftIdentities:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_time_reversal(self, engine, seed):
        # FFT(x[-n mod N])[k] == FFT(x)[-k mod N]
        f = ENGINES[engine]
        x = _x(seed)
        reversed_x = x[(-np.arange(N)) % N]
        lhs = f(reversed_x)
        rhs = f(x)[(-np.arange(N)) % N]
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_conjugation(self, engine, seed):
        # FFT(conj(x))[k] == conj(FFT(x)[-k mod N])
        f = ENGINES[engine]
        x = _x(seed)
        lhs = f(np.conj(x))
        rhs = np.conj(f(x)[(-np.arange(N)) % N])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, N - 1))
    def test_modulation_shift_duality(self, engine, seed, m):
        # FFT(x * W^{-mn})[k] == FFT(x)[(k - m) mod N]
        f = ENGINES[engine]
        x = _x(seed)
        carrier = np.exp(2j * np.pi * m * np.arange(N) / N)
        lhs = f(x * carrier)
        rhs = f(x)[(np.arange(N) - m) % N]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_plancherel_inner_product(self, engine, seed):
        # <FFT(x), FFT(y)> == N * <x, y>
        f = ENGINES[engine]
        x, y = _x(seed), _x(seed + 77)
        lhs = np.vdot(f(x), f(y))
        rhs = N * np.vdot(x, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_double_transform_is_reversal(self, engine, seed):
        # FFT(FFT(x)) == N * x[-n mod N]
        f = ENGINES[engine]
        x = _x(seed)
        lhs = f(f(x))
        rhs = N * x[(-np.arange(N)) % N]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestFiveStep3DIdentities:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_3d_conjugation_symmetry_of_real_input(self, seed):
        from repro.core.five_step import FiveStepPlan

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 8, 16))
        spec = FiveStepPlan((8, 8, 16), precision="double").execute(x)
        kz = (-np.arange(8)) % 8
        ky = (-np.arange(8)) % 8
        kx = (-np.arange(16)) % 16
        mirrored = np.conj(spec[np.ix_(kz, ky, kx)])
        np.testing.assert_allclose(spec, mirrored, atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 7))
    def test_3d_shift_theorem(self, seed, shift):
        from repro.core.five_step import FiveStepPlan

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 8, 16)) + 0j
        plan = FiveStepPlan((8, 8, 16), precision="double")
        rolled = np.roll(x, shift, axis=0)
        kz = np.arange(8)[:, None, None]
        phase = np.exp(-2j * np.pi * kz * shift / 8)
        np.testing.assert_allclose(
            plan.execute(rolled), plan.execute(x) * phase, atol=1e-9
        )
