"""Public 1-D transform entry points (plan-free convenience API)."""

from __future__ import annotations

import numpy as np

from repro.fft.plan import Plan1D

__all__ = ["fft", "ifft"]


def fft(
    x: np.ndarray,
    axis: int = -1,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Forward complex FFT along ``axis`` (power-of-two length).

    Semantics match ``numpy.fft.fft`` for the default ``norm``.
    ``precision=None`` keeps complex64 input in single precision and
    promotes everything else to double.
    """
    x = np.asarray(x)
    if precision is None:
        precision = "single" if x.dtype == np.complex64 else "double"
    moved = np.moveaxis(x, axis, -1)
    plan = Plan1D(moved.shape[-1], precision=precision, norm=norm)
    return np.ascontiguousarray(
        np.moveaxis(plan.execute(np.ascontiguousarray(moved)), -1, axis)
    )


def ifft(
    x: np.ndarray,
    axis: int = -1,
    norm: str = "backward",
    precision: str | None = None,
) -> np.ndarray:
    """Inverse complex FFT along ``axis``; matches ``numpy.fft.ifft``."""
    x = np.asarray(x)
    if precision is None:
        precision = "single" if x.dtype == np.complex64 else "double"
    moved = np.moveaxis(x, axis, -1)
    plan = Plan1D(moved.shape[-1], precision=precision, norm=norm)
    return np.ascontiguousarray(
        np.moveaxis(plan.execute(np.ascontiguousarray(moved), inverse=True), -1, axis)
    )
