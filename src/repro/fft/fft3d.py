"""Public 3-D transform entry points (host reference path).

These run the separable multirow transform on the host; the GPU-simulated
bandwidth-intensive path lives in :mod:`repro.core.api` and is checked to
produce bit-identical math modulo floating-point ordering.
"""

from __future__ import annotations

import numpy as np

from repro.fft.plan import PlanND

__all__ = ["fft3d", "ifft3d"]


def _plan_for(x: np.ndarray, norm: str, precision: str | None) -> PlanND:
    if x.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {x.shape}")
    if precision is None:
        precision = "single" if x.dtype == np.complex64 else "double"
    return PlanND(x.shape, precision=precision, norm=norm)


def fft3d(
    x: np.ndarray,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Forward 3-D FFT; matches ``numpy.fft.fftn`` for the default norm."""
    x = np.asarray(x)
    return _plan_for(x, norm, precision).execute(x)


def ifft3d(
    x: np.ndarray,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Inverse 3-D FFT; matches ``numpy.fft.ifftn``."""
    x = np.asarray(x)
    return _plan_for(x, norm, precision).execute(x, inverse=True)
