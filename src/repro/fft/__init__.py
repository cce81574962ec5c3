"""From-scratch FFT library (the math substrate under the GPU kernels).

Everything the paper's kernels compute is implemented here on NumPy arrays:
small-point codelets, the Stockham autosort transform, recursive four-step
(Cooley-Tukey) decomposition, multirow (batched) transforms along any axis,
and full 1-D/2-D/3-D transforms with planning.  ``numpy.fft`` is used only
in the test suite as an oracle, never inside the library.
"""

from repro.fft.twiddle import (
    DEFAULT_CACHE,
    TwiddleCache,
    TwiddleCacheStats,
    four_step_twiddles,
    twiddle_table,
)
from repro.fft.reference import dft_reference, dft_matrix, dft3_reference
from repro.fft.codelets import (
    CODELET_SIZES,
    codelet_fft,
    fft2,
    fft4,
    fft8,
    fft16,
)
from repro.fft.stockham import stockham_fft
from repro.fft.cooley_tukey import four_step_fft, fft_pow2
from repro.fft.multirow import multirow_fft
from repro.fft.plan import Plan1D, PlanND
from repro.fft.fft1d import fft, ifft
from repro.fft.fft2d import fft2d, ifft2d
from repro.fft.fft3d import fft3d, ifft3d
from repro.fft.real import rfft, irfft
from repro.fft.realnd import rfft3d, irfft3d

__all__ = [
    "twiddle_table",
    "four_step_twiddles",
    "TwiddleCache",
    "TwiddleCacheStats",
    "DEFAULT_CACHE",
    "dft_reference",
    "dft_matrix",
    "dft3_reference",
    "CODELET_SIZES",
    "codelet_fft",
    "fft2",
    "fft4",
    "fft8",
    "fft16",
    "stockham_fft",
    "four_step_fft",
    "fft_pow2",
    "multirow_fft",
    "Plan1D",
    "PlanND",
    "fft",
    "ifft",
    "fft2d",
    "ifft2d",
    "fft3d",
    "ifft3d",
    "rfft",
    "irfft",
    "rfft3d",
    "irfft3d",
]
