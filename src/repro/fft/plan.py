"""Plan objects: precomputed decomposition + twiddles for repeated use.

FFTW popularized the plan-then-execute API; the paper's kernels are also
size-specialized ("the program itself must be tailored for each major
sizes", Section 4.6).  A plan fixes size, precision and normalization
once, validates on construction, and then executes with no per-call
planning cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fft.cooley_tukey import fft_pow2
from repro.fft.normalization import NORMS, apply_norm
from repro.fft.multirow import multirow_fft
from repro.util.indexing import ilog2
from repro.util.validation import as_complex_array

__all__ = ["Plan1D", "PlanND"]


@dataclass(frozen=True)
class Plan1D:
    """A reusable 1-D transform of fixed size.

    Parameters
    ----------
    n:
        Transform length (power of two).
    precision:
        ``"single"`` or ``"double"``; input is cast on execute.
    norm:
        One of :data:`repro.fft.normalization.NORMS`.
    """

    n: int
    precision: str = "double"
    norm: str = "backward"

    def __post_init__(self) -> None:
        ilog2(self.n)
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected {NORMS}")
        if self.precision not in ("single", "double"):
            raise ValueError(f"unknown precision {self.precision!r}")

    def execute(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Transform the last axis of ``x`` (batched over leading axes)."""
        x = as_complex_array(x, self.precision)
        if x.shape[-1] != self.n:
            raise ValueError(
                f"plan is for size {self.n}, input last axis is {x.shape[-1]}"
            )
        out = fft_pow2(x, inverse)
        return apply_norm(out, self.n, self.norm, inverse)

    @property
    def flops(self) -> float:
        """Nominal flops per single transform (``5 n log2 n``)."""
        return 5.0 * self.n * ilog2(self.n)


@dataclass(frozen=True)
class PlanND:
    """A reusable N-D transform over all axes of a fixed shape.

    Applies 1-D multirow transforms axis by axis (the separability of the
    multi-dimensional DFT); the 3-D public API wraps this.
    """

    shape: tuple[int, ...]
    precision: str = "double"
    norm: str = "backward"
    _plans: tuple[Plan1D, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("shape must be non-empty")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        plans = tuple(
            Plan1D(n, self.precision, norm="backward")
            for n in self.shape
        )
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected {NORMS}")
        object.__setattr__(self, "_plans", plans)

    def execute(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Transform all axes of ``x`` (must match the planned shape)."""
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, input is {x.shape}")
        for axis in range(len(self.shape)):
            x = multirow_fft(x, axis=axis, inverse=inverse)
        total = 1
        for n in self.shape:
            total *= n
        return apply_norm(x, total, self.norm, inverse)

    @property
    def flops(self) -> float:
        """Nominal flops: ``5 * total * sum(log2 n_axis)``."""
        total = 1
        for n in self.shape:
            total *= n
        return 5.0 * total * sum(ilog2(n) for n in self.shape)
