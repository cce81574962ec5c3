"""Public 2-D transform entry points."""

from __future__ import annotations

import numpy as np

from repro.fft.plan import PlanND

__all__ = ["fft2d", "ifft2d"]


def _plan_for(x: np.ndarray, norm: str, precision: str | None) -> PlanND:
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    if precision is None:
        precision = "single" if x.dtype == np.complex64 else "double"
    return PlanND(x.shape, precision=precision, norm=norm)


def fft2d(
    x: np.ndarray,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Forward 2-D FFT; matches ``numpy.fft.fft2`` for the default norm."""
    x = np.asarray(x)
    return _plan_for(x, norm, precision).execute(x)


def ifft2d(
    x: np.ndarray,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Inverse 2-D FFT; matches ``numpy.fft.ifft2``."""
    x = np.asarray(x)
    return _plan_for(x, norm, precision).execute(x, inverse=True)
