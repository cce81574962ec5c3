"""Compiled five-step execution: table bundles + the five-call sequence.

A :class:`CompiledFiveStep` is the compiled counterpart of one
:class:`~repro.core.five_step.FiveStepPlan`: it holds the float-viewed
twiddle tables (taken from the same
:data:`~repro.fft.twiddle.DEFAULT_CACHE` the NumPy reference reads, so
both paths consume identical constants) and drives the emitted kernels
through the exact pipeline the reference executes:

    1. ``mr_a[rz2]``  state (a,b,c,d,nx) -> (b,c,d,a,nx), wz fused
    2. ``mr_b[rz1]``  -> (c,d,b,a,nx)
    3. ``mr_a[ry2]``  -> (d,b,a,c,nx), wy fused
    4. ``mr_b[ry1]``  -> (b,a,d,c,nx)
    5. ``s5[nx]``     in place along the contiguous lines, times ``scale``

with one ping-pong work buffer: x -> work -> out -> work -> out -> out.
Each call splits its outer loops across the cores ``threads`` gives it
when the call starts; the bits do not depend on the split
(:mod:`repro.jit.cc`).
``out`` may alias ``x`` (the batched engine transforms device buffers in
place): step 1 is the only reader of ``x`` and step 2 is the first
writer of ``out``.  Instances are stateless between calls — the work
buffer is caller-provided and the step-5 accumulator a C stack local — so
one compiled plan is safely shared across server workers, exactly like
the plan it accelerates.

Inverse transforms pass ``sgn=-1``: every load and store flips the
imaginary sign, which together with the *forward* twiddle tables is
bit-equivalent to the reference's ``conj(F(conj(x)))`` sandwich with
conjugated tables (conjugation distributes exactly over the kernels'
sums, products and FMAs).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fft.twiddle import DEFAULT_CACHE, TwiddleCache
from repro.jit import emit

__all__ = ["supports_shape", "CompiledFiveStep"]


def supports_shape(rz1: int, rz2: int, ry1: int, ry2: int, nx: int) -> bool:
    """True when emitted kernels cover this plan geometry.

    The four axis-split radices must each have a straight-line codelet
    and the X extent an emitted step-5 kernel; anything else (512-point
    axes from out-of-core slabs, exotic splits) stays on the NumPy path.
    """
    return (
        all(r in emit.CODELET_RADICES for r in (rz1, rz2, ry1, ry2))
        and nx in emit.STEP5_SIZES
    )


def _fview(arr: np.ndarray, rdt) -> np.ndarray:
    return np.ascontiguousarray(arr).view(rdt).reshape(-1)


class CompiledFiveStep:
    """One plan's compiled kernels + tables, ready to execute.

    Parameters
    ----------
    shape, precision:
        The plan geometry (must satisfy :func:`supports_shape` after
        axis splitting).
    rz1, rz2, ry1, ry2:
        The plan's axis-split radices (from
        :func:`repro.core.five_step.split_axis`).
    kernels:
        ``{"multirow_a": {radix: fn}, "multirow_b": ..., "step5": ...}``
        — the ctypes entry points of :class:`repro.jit.cc.CJitLibrary`.
    twiddles:
        Table source; defaults to the process-wide cache.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        precision: str,
        rz1: int,
        rz2: int,
        ry1: int,
        ry2: int,
        kernels: dict,
        twiddles: TwiddleCache | None = None,
    ):
        if not supports_shape(rz1, rz2, ry1, ry2, shape[2]):
            raise ValueError(f"no compiled kernels for shape {shape}")
        cache = twiddles or DEFAULT_CACHE
        self.shape = shape
        self.precision = precision
        a, b, c, d = rz2, rz1, ry2, ry1
        nx = shape[2]
        cdt = np.dtype(np.complex64 if precision == "single" else np.complex128)
        rdt = np.dtype(np.float32 if precision == "single" else np.float64)
        self._cdtype = cdt
        self._size = a * b * c * d * nx
        # Forward tables only — sgn handles the inverse (module docstring).
        wz = _fview(cache.four_step(rz1, rz2, precision), rdt)
        wy = _fview(cache.four_step(ry1, ry2, precision), rdt)
        r1, r2 = emit.step5_split(nx)
        if r2 == 1:
            w5 = np.zeros(2, rdt)  # unused by the direct-16 kernel
        else:
            w5 = _fview(cache.four_step_cast(r1, r2, cdt), rdt)
        ctab = _fview(
            np.concatenate([cache.codelet8(cdt), cache.half(16, cdt)]), rdt
        )
        # The kernels take bare addresses: keep the tables alive with them.
        self._tables = (wz, wy, w5, ctab)
        self._wz, self._wy, self._w5, self._ctab = (
            t.ctypes.data for t in self._tables
        )
        mr_a, mr_b = kernels["multirow_a"], kernels["multirow_b"]
        self._calls = (mr_a[a], mr_b[b], mr_a[c], mr_b[d], kernels["step5"][nx])
        self._radices = (a, b, c, d)
        self._nx = nx
        self._scalar = rdt.type

    def _address(self, arr, name: str, write: bool) -> int:
        """The data address of ``arr`` once it is an array the kernels can
        take: the plan's complex dtype and size, C-contiguous, and
        writeable when ``write``.  Raises ``ValueError`` otherwise."""
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == self._cdtype
            and arr.size == self._size
        ):
            got = (
                f"{arr.dtype} {arr.shape}"
                if isinstance(arr, np.ndarray)
                else type(arr).__name__
            )
            raise ValueError(
                f"{name} must be {self._cdtype} with the plan's {self._size} "
                f"points {self.shape}, got {got}"
            )
        iface = arr.__array_interface__
        if iface["strides"] is not None:  # None means C-contiguous
            raise ValueError(f"{name} must be C-contiguous")
        address, readonly = iface["data"]
        if write and readonly:
            raise ValueError(f"{name} must be writeable")
        return address

    def run(
        self,
        x: np.ndarray,
        out: np.ndarray,
        work: np.ndarray,
        inverse: bool = False,
        scale: float = 1.0,
        threads: int | Callable[[], int] = 1,
    ) -> None:
        """Transform C-contiguous ``x`` into ``out`` (may alias ``x``).

        ``work`` is a caller-owned scratch array of the plan's shape and
        dtype (from the plan's workspace arena on the pooled path); its
        contents are clobbered.  All three must be C-contiguous arrays of
        the plan's complex dtype and size (``out`` and ``work``
        writeable), or ``ValueError`` is raised before any kernel runs.
        ``scale`` (a normalization factor) is applied by step 5 to each
        chunk of finished lines while it is still in cache; a scale that
        is exactly 1 in the plan's precision is skipped.  ``threads``
        host cores share each kernel's outer loops: a count, or a
        function read before each of the five kernels (the share
        :func:`repro.jit.core_budget` yields).
        """
        px = self._address(x, "x", write=False)
        po = self._address(out, "out", write=True)
        pw = self._address(work, "work", write=True)
        a, b, c, d = self._radices
        nx, ctab = self._nx, self._ctab
        sgn = -1.0 if inverse else 1.0
        t = threads if callable(threads) else lambda: threads
        mr_a1, mr_b1, mr_a2, mr_b2, s5 = self._calls
        mr_a1(px, pw, self._wz, ctab, b, c, d, nx, sgn, t())
        mr_b1(pw, po, ctab, c, d, a, nx, sgn, t())
        mr_a2(po, pw, self._wy, ctab, d, b, a, nx, sgn, t())
        mr_b2(pw, po, ctab, b, a, c, nx, sgn, t())
        s5(po, self._w5, ctab, a * b * c * d, sgn, self._scalar(scale), t())
