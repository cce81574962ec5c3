"""The bandwidth-intensive five-step 3-D FFT plan (Section 3.1).

Structure, for a ``(nz, ny, nx)`` single-precision grid:

    Step 1.  16-point FFTs — first half of the Z transforms  (read D, write A)
    Step 2.  16-point FFTs — second half of the Z transforms (read D, write B)
    Step 3.  Step 1 for Y                                    (read D, write A)
    Step 4.  Step 2 for Y                                    (read D, write B)
    Step 5.  full transforms along contiguous X (shared-memory kernel)

Every kernel performs only sequential/low-stride memory access on at least
one side (never a C/D x C/D pair), which is the paper's central idea.  The
split of each axis ``n = r1 * r2`` generalizes the paper's 16 x 16 for 256
to 16 x 8 for 128 and 8 x 8 for 64 ("our 3-D FFT algorithm does not depend
on problem size, although the program itself must be tailored for each
major sizes", Section 4.6).

Index algebra (verified against ``numpy.fft.fftn`` in the test suite): with
``Z = z1 + r1*z2`` the two halves compute the four-step lemma, and after
steps 1-4 the state's C-order axes are ``(k1z, k2z, k1y, k2y, x)``, whose
plain reshape back to 3-D is exactly the natural-order spectrum — the
transposes are absorbed into the pattern-A/B writes, never paid separately.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.kernels import (
    fft_codelet_axis0,
    multirow_half1,
    multirow_half2,
    multirow_step_spec,
    shared_x_step_spec,
    shared_x_transform,
)
from repro.core.patterns import FiveDimView
from repro.fft.codelets import CODELET_SIZES
from repro.fft.twiddle import DEFAULT_CACHE, TwiddleCache
from repro.gpu.kernel import KernelSpec
from repro.gpu.specs import DeviceSpec
from repro.jit import core_budget
from repro.util.indexing import ilog2
from repro.util.units import flops_3d_fft
from repro.util.validation import as_complex_array

__all__ = ["split_axis", "resolve_plan_backend", "StepInfo", "FiveStepPlan"]


def split_axis(n: int) -> tuple[int, int]:
    """Split ``n = r1 * r2`` into two codelet factors, ``r1 >= r2``.

    ``r1`` is the fast-digit factor (transformed by the second half) and
    ``r2`` the slow-digit factor (first half).  256 -> (16, 16),
    128 -> (16, 8), 64 -> (8, 8).
    """
    ilog2(n)
    if n < 4:
        raise ValueError(
            f"the five-step algorithm needs Y/Z extents >= 4, got {n}"
        )
    best: tuple[int, int] | None = None
    for r1 in sorted(CODELET_SIZES, reverse=True):
        if n % r1 == 0 and (n // r1) in CODELET_SIZES:
            r2 = n // r1
            if best is None or abs(r1 - r2) < abs(best[0] - best[1]):
                best = (max(r1, r2), min(r1, r2))
    if best is None:
        # Axes beyond 256 (needed for the out-of-core slabs, where
        # ny = nz = 512) put the oversized factor in the first half; the
        # per-thread transform then needs more registers, which the
        # occupancy model charges honestly.
        r1 = max(CODELET_SIZES)
        if n % r1 != 0:
            raise ValueError(f"cannot split {n} into power-of-two factors")
        return (n // r1, r1) if n // r1 > r1 else (r1, n // r1)
    return best


def resolve_plan_backend(shape, backend: str = "numpy") -> str:
    """The concrete backend a plan for ``shape`` will execute with.

    Combines machine availability (:func:`repro.jit.resolve_backend`)
    with per-shape kernel coverage: a compiled backend is only kept when
    every axis-split radix has an emitted codelet and the X extent an
    emitted step-5 kernel; everything else degrades to ``"numpy"``.
    Used both by :class:`FiveStepPlan` and by the plan cache (which keys
    plans on the *resolved* backend, so ``"auto"`` and its concrete
    resolution share one entry).
    """
    if backend == "numpy":
        return "numpy"
    from repro import jit

    resolved = jit.resolve_backend(backend)
    if resolved == "numpy":
        return "numpy"
    if isinstance(shape, int):
        shape = (shape, shape, shape)
    nz, ny, nx = (int(n) for n in shape)
    try:
        rz1, rz2 = split_axis(nz)
        ry1, ry2 = split_axis(ny)
    except ValueError:
        return "numpy"
    if not jit.supports_shape(rz1, rz2, ry1, ry2, nx):
        return "numpy"
    return resolved


def _scaled(y: np.ndarray, scale: float) -> np.ndarray:
    """``y *= scale`` in place, as a complex multiply; a no-op for 1."""
    s = y.dtype.type(scale)
    if s != 1:
        y *= s
    return y


@dataclass(frozen=True)
class StepInfo:
    """One step of the plan: its spec builder plus a readable description."""

    index: int
    name: str
    pattern_pair: str  # e.g. "D->A"
    spec: Callable[[DeviceSpec], KernelSpec]


class FiveStepPlan:
    """Plan and execute the bandwidth-intensive 3-D FFT.

    Parameters
    ----------
    shape:
        ``(nz, ny, nx)``; each extent a power of two, ``nx >= 16`` (one
        X line must fill at least one coalesced transaction) and
        ``ny, nz >= 4``.
    precision:
        ``"single"`` (the paper's case) or ``"double"`` (the paper's
        stated future work; see DESIGN.md extensions).
    backend:
        ``"numpy"`` (reference, default), ``"cjit"`` or ``"auto"``.
        cjit degrades to ``"numpy"`` when no C compiler is available or
        the shape has no emitted kernels; the concrete choice is
        :attr:`backend` (DESIGN.md §18).
    """

    def __init__(
        self,
        shape: tuple[int, int, int] | int,
        precision: str = "single",
        twiddles: TwiddleCache | None = None,
        backend: str = "numpy",
    ):
        if isinstance(shape, int):
            shape = (shape, shape, shape)
        if len(shape) != 3:
            raise ValueError(f"shape must be 3-D, got {shape}")
        nz, ny, nx = (int(n) for n in shape)
        ilog2(nx)
        if nx < 16:
            raise ValueError(f"nx must be >= 16, got {nx}")
        if precision not in ("single", "double"):
            raise ValueError(f"unknown precision {precision!r}")
        self.shape = (nz, ny, nx)
        self.precision = precision
        self.rz1, self.rz2 = split_axis(nz)
        self.ry1, self.ry2 = split_axis(ny)
        self._cache = twiddles or DEFAULT_CACHE
        self._el = 8 if precision == "single" else 16
        #: The backend as requested (before availability/shape resolution).
        self.backend_requested = backend
        #: The concrete backend executing this plan (``"numpy"`` when the
        #: request degraded); set once at construction so the plan-cache
        #: key and the executing code path can never disagree.
        self.backend = resolve_plan_backend(self.shape, backend)
        self._compiled = None
        self._compile_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def flops(self) -> float:
        """Nominal flop count (the paper's 15 N^3 log2 N convention)."""
        nz, ny, nx = self.shape
        return flops_3d_fft(nx, ny, nz)

    @property
    def total_bytes(self) -> int:
        nz, ny, nx = self.shape
        return nz * ny * nx * self._el

    def _views(self) -> list[FiveDimView]:
        """Fortran-dim views of the five intermediate layouts."""
        nz, ny, nx = self.shape
        a, b = self.rz2, self.rz1  # slow, fast Z factors
        c, d = self.ry2, self.ry1  # slow, fast Y factors
        el = self._el
        return [
            FiveDimView((nx, d, c, b, a), el),  # V0
            FiveDimView((nx, a, d, c, b), el),  # W1
            FiveDimView((nx, a, b, d, c), el),  # V1
            FiveDimView((nx, c, a, b, d), el),  # W2
            FiveDimView((nx, c, d, a, b), el),  # V2
        ]

    def steps(self) -> list[StepInfo]:
        """The five steps with their spec builders."""
        nz, ny, nx = self.shape
        v0, w1, v1, w2, v2 = self._views()
        buf0, buf1 = 0, self.total_bytes  # V and WORK base addresses

        def s1(dev: DeviceSpec) -> KernelSpec:
            return multirow_step_spec(
                dev, v0, w1, 2, buf0, buf1, with_twiddle=True, name="step1-fft16z"
            )

        def s2(dev: DeviceSpec) -> KernelSpec:
            return multirow_step_spec(
                dev, w1, v1, 3, buf1, buf0, with_twiddle=False, name="step2-fft16z"
            )

        def s3(dev: DeviceSpec) -> KernelSpec:
            return multirow_step_spec(
                dev, v1, w2, 2, buf0, buf1, with_twiddle=True, name="step3-fft16y"
            )

        def s4(dev: DeviceSpec) -> KernelSpec:
            return multirow_step_spec(
                dev, w2, v2, 3, buf1, buf0, with_twiddle=False, name="step4-fft16y"
            )

        def s5(dev: DeviceSpec) -> KernelSpec:
            return shared_x_step_spec(dev, nx, nz * ny, base_in=buf0)

        return [
            StepInfo(1, f"{self.rz2}-point FFTs (Z, first half)", "D->A", s1),
            StepInfo(2, f"{self.rz1}-point FFTs (Z, second half)", "D->B", s2),
            StepInfo(3, f"{self.ry2}-point FFTs (Y, first half)", "D->A", s3),
            StepInfo(4, f"{self.ry1}-point FFTs (Y, second half)", "D->B", s4),
            StepInfo(5, f"{nx}-point FFTs (X, shared memory)", "seq", s5),
        ]

    def step_specs(self, device: DeviceSpec) -> list[KernelSpec]:
        """The five KernelSpecs, built for ``device``."""
        return [s.spec(device) for s in self.steps()]

    def warm_tables(self) -> None:
        """Build every twiddle table :meth:`execute` reads, both directions.

        Runs the line transform of each axis-split radix and of X once on
        a zero line, so the tables built are exactly the ones those code
        paths read (the compiled backend reads a subset of them).
        """
        self._cache.four_step(self.rz1, self.rz2, self.precision)
        self._cache.four_step(self.ry1, self.ry2, self.precision)
        cdt = np.complex64 if self.precision == "single" else np.complex128
        lines = {self.rz1, self.rz2, self.ry1, self.ry2, self.shape[2]}
        for inverse in (False, True):
            for n in lines:
                fft_codelet_axis0(np.zeros((n, 1), cdt), inverse)

    # ------------------------------------------------------------------
    # Compiled backend
    # ------------------------------------------------------------------

    def ensure_compiled(self) -> float:
        """Compile/load this plan's backend kernels if not yet done.

        Returns the wall-clock seconds spent *by this call* (0.0 for the
        numpy backend or when already compiled) so the execution engines
        can charge warm-up as an observable ``jit.compile`` span.  A
        compile failure degrades the plan to the numpy backend instead
        of raising — clean fallback is the backend contract.
        """
        if self.backend == "numpy" or self._compiled is not None:
            return 0.0
        with self._compile_lock:
            if self._compiled is not None or self.backend == "numpy":
                return 0.0
            from repro import jit

            try:
                compiled, wall = jit.compile_plan(
                    self.backend,
                    self.shape,
                    self.precision,
                    self.rz1,
                    self.rz2,
                    self.ry1,
                    self.ry2,
                    twiddles=self._cache,
                )
            except Exception:
                self.backend = "numpy"
                return 0.0
            self._compiled = compiled
        from repro.core.plan_cache import PLAN_CACHE

        PLAN_CACHE.record_compile(self.backend, wall)
        return wall

    def _execute_compiled(self, x, inverse, workspace, out, scale):
        """The compiled five-call sequence (same contract as the rest of
        :meth:`execute`: ``out`` may alias ``x``, ``workspace`` pools the
        ping-pong scratch, ``scale`` rides step 5's store), on this
        transform's share of the host's cores."""
        if out is None:
            out = np.empty(self.shape, x.dtype)
        if workspace is not None:
            work = workspace.acquire(self.shape, x.dtype)
        else:
            work = np.empty(self.shape, x.dtype)
        try:
            with core_budget(x.size) as share:
                self._compiled.run(x, out, work, inverse, scale, share)
        finally:
            if workspace is not None:
                workspace.release(work)
        return out

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------

    def execute(
        self,
        x: np.ndarray,
        inverse: bool = False,
        *,
        workspace=None,
        out: np.ndarray | None = None,
        scale: float = 1.0,
    ) -> np.ndarray:
        """Run the transform on the host; un-normalized both directions.

        Matches ``numpy.fft.fftn`` forward and ``ifftn * N`` inverse.
        ``scale`` multiplies the result as
        :func:`~repro.fft.normalization.apply_norm` does (``y *= scale``, a
        complex multiply by ``(scale, 0)``, skipped when the scale is 1 in
        the plan's precision), bit for bit: the compiled backend fuses it
        into step 5's store, NumPy multiplies in place after step 5.

        ``workspace`` (a :class:`~repro.core.workspace.Workspace`) runs the
        pooled zero-allocation path: every intermediate comes from the
        arena and the twiddle multiplies are fused into the pattern-A/B
        rearrangement writes.  ``out`` (C-contiguous, plan shape/dtype)
        receives the spectrum in place.  Values are bit-identical to the
        unpooled reference path, which stays as the oracle the pooled and
        compiled paths are tested against.
        """
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, got {x.shape}")
        if out is not None and not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if out is not None and (out.shape != self.shape or out.dtype != x.dtype):
            raise ValueError(
                f"out must be {self.shape} {x.dtype}, got {out.shape} {out.dtype}"
            )
        if self.backend != "numpy":
            self.ensure_compiled()
        if self._compiled is not None:
            return self._execute_compiled(x, inverse, workspace, out, scale)
        wz = self._cache.four_step(self.rz1, self.rz2, self.precision)
        wy = self._cache.four_step(self.ry1, self.ry2, self.precision)
        state = x.reshape(self.rz2, self.rz1, self.ry2, self.ry1, self.shape[2])
        if workspace is None:
            state = multirow_half1(state, wz, inverse)  # step 1
            state = multirow_half2(state, inverse)      # step 2
            state = multirow_half1(state, wy, inverse)  # step 3
            state = multirow_half2(state, inverse)      # step 4
            state = shared_x_transform(state, inverse)  # step 5
            res = _scaled(state.reshape(self.shape), scale)
            if out is None:
                return res
            np.copyto(out, res)
            return out
        ws = workspace
        b1 = multirow_half1(state, wz, inverse, ws=ws)  # step 1
        b2 = multirow_half2(b1, inverse, ws=ws)         # step 2
        ws.release(b1)
        b3 = multirow_half1(b2, wy, inverse, ws=ws)     # step 3
        ws.release(b2)
        b4 = multirow_half2(b3, inverse, ws=ws)         # step 4
        ws.release(b3)
        if out is None:
            out = np.empty(self.shape, b4.dtype)
        shared_x_transform(b4, inverse, out=out.reshape(b4.shape), ws=ws)
        ws.release(b4)
        return _scaled(out, scale)

    def execute_steps(self, x: np.ndarray, inverse: bool = False):
        """Yield ``(StepInfo, state)`` after each step (for inspection)."""
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, got {x.shape}")
        nz, ny, nx = self.shape
        wz = self._cache.four_step(self.rz1, self.rz2, self.precision)
        wy = self._cache.four_step(self.ry1, self.ry2, self.precision)
        infos = self.steps()
        state = x.reshape(self.rz2, self.rz1, self.ry2, self.ry1, nx)
        state = multirow_half1(state, wz, inverse)
        yield infos[0], state
        state = multirow_half2(state, inverse)
        yield infos[1], state
        state = multirow_half1(state, wy, inverse)
        yield infos[2], state
        state = multirow_half2(state, inverse)
        yield infos[3], state
        state = shared_x_transform(state, inverse)
        yield infos[4], state
