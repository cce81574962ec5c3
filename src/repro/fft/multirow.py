"""Multirow (batched) 1-D FFT along an arbitrary axis.

"The multirow FFT computes multiple 1-D FFTs simultaneously" (Section 2.1)
— the paper inherits the idea from vector machines [Swarztrauber 1984] and
maps the row dimension onto GPU threads.  On the host, rows map onto NumPy
batch axes: we move the transform axis last and run one vectorized sweep,
which is the same memory-access philosophy (long unit-stride runs over the
row dimension) the paper exploits.
"""

from __future__ import annotations

import numpy as np

from repro.fft.cooley_tukey import fft_pow2

__all__ = ["multirow_fft"]


def multirow_fft(x: np.ndarray, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """Un-normalized FFT along ``axis`` of ``x``, batched over the rest.

    Runs the four-step power-of-two transform on the axis moved last.
    The result is C-contiguous with the original axis order.
    """
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"axis {axis} out of range for ndim {x.ndim}")
    moved = np.moveaxis(x, axis, -1)
    out = fft_pow2(np.ascontiguousarray(moved), inverse)
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))
