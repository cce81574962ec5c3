"""High-level public API for the bandwidth-intensive GPU 3-D FFT.

:class:`GpuFFT3D` is what a downstream application (e.g. the docking code
in :mod:`repro.apps.docking`) uses: plan once, transform many times, and —
when given a :class:`~repro.gpu.simulator.DeviceSimulator` — have every
launch and transfer accounted on the simulated timeline.

The plan is *resilient* by construction: transfers are checksummed and
retried, rejected launches are retried with backoff, a lost device is
reset and the transform resumed (from the last completed slab checkpoint
on the out-of-core path), and when the device keeps failing the plan
degrades to running its own plan on the host — the same bits as the
device path — and records the downgrade.  All of this
is driven by an optional :class:`~repro.gpu.faults.FaultInjector`; with
no injector attached the resilient machinery adds zero simulated time.
The cost of robustness is surfaced via :meth:`GpuFFT3D.resilience_report`.

The retries themselves, the device reset and the host fallback live in
:class:`~repro.core.resilient.ResilientExecutor`; construction, the five
launches and the Parseval check in its base
:class:`~repro.core.resilient.ResilientEngine`.  This module keeps the
per-transform loop (``_run_in_core``: ECC recomputes and the reset
budget) and the choice to free both device buffers on fallback.

With no fault injector in scope an in-core transform reads the caller's
array and writes the result (a fresh array, or ``out=``) directly, the
norm scale fused into step 5; the transfers are charged but nothing is
copied (:meth:`~repro.core.resilient.ResilientEngine._round_trip`).
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.core.estimator import FFT3DEstimate, estimate_fft3d
from repro.core.out_of_core import OutOfCoreEstimate, OutOfCorePlan
from repro.core.resilient import ResilientEngine, RetryPolicy, run_out_of_core
from repro.fft.normalization import apply_norm
from repro.gpu.faults import (
    CorruptionError,
    DeviceLostError,
    FaultError,
    FaultInjector,
)
from repro.gpu.simulator import DeviceArray, DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["GpuFFT3D", "gpu_fft3d", "gpu_ifft3d"]

#: Monotonic plan ids so device buffer names never collide when several
#: plans share one simulator.
_PLAN_IDS = count()


class GpuFFT3D(ResilientEngine):
    """A planned 3-D transform bound to a (simulated) device.

    Parameters
    ----------
    shape:
        ``(nz, ny, nx)`` or a cube size.
    device:
        Target GPU spec; defaults to the 8800 GTX.
    simulator:
        Optional shared :class:`DeviceSimulator`; when omitted, one is
        created and exposed as :attr:`simulator`.
    precision / norm:
        As in :mod:`repro.fft`.
    fault_injector:
        Optional :class:`~repro.gpu.faults.FaultInjector` scoped to *this
        plan's* operations; makes its transfers/launches/allocations
        fallible.  On a shared simulator the injector is attached only
        while this plan executes (via
        :meth:`DeviceSimulator.fault_scope`), so sibling plans stay
        fault-free; passing a second, different injector while the
        simulator already has one raises ``ValueError``.
    retry_policy:
        Bounds on retries, backoff and device resets; defaults to
        :class:`~repro.core.resilient.RetryPolicy`.
    verify:
        Run the Parseval energy check on transform results (catches ECC
        upsets).  Default ``None`` enables it exactly when a fault
        injector is attached.
    profiler:
        Optional :class:`repro.obs.Profiler`.  When given it is attached
        to this plan's simulator, every operation the plan charges is
        captured as an annotated span (tagged with :attr:`plan_id`), and
        the caller reads the trace/metrics off the profiler — the execute
        methods themselves are unchanged.
    name:
        Optional stable plan id used to prefix device buffer names and
        trace annotations; defaults to a process-unique ``fft3dN``.
        Callers sharing one simulator must keep names unique.
    raise_on_device_loss:
        When True, a device loss that exhausts the reset budget
        re-raises :class:`~repro.gpu.faults.DeviceLostError` instead of
        silently degrading to the host path.  The serving layer's health
        monitor sets this so a dying card surfaces as a worker failure
        (ejection + re-queue) rather than vanishing into a slow host
        transform.
    backend:
        Hot-path implementation: ``"numpy"`` (default, the reference),
        ``"cjit"`` or ``"auto"`` (see :mod:`repro.jit`).  cjit degrades
        cleanly to NumPy without a C compiler or when the plan geometry
        has no emitted kernels; its results are bit-identical on FMA
        hardware (DESIGN.md §18).

    Host execution runs through the plan's own
    :class:`~repro.core.workspace.Workspace` arena (:attr:`workspace`):
    every transform intermediate is a reused pooled buffer, so the
    transform loop makes no steady-state heap allocations.

    Transforms larger than device memory transparently take the
    out-of-core path (Section 3.3), staged slab by slab through the
    simulator with per-slab checkpoints.
    """

    def __init__(
        self,
        shape: tuple[int, int, int] | int,
        device: DeviceSpec = GEFORCE_8800_GTX,
        simulator: DeviceSimulator | None = None,
        precision: str = "single",
        norm: str = "backward",
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        verify: bool | None = None,
        profiler: Profiler | None = None,
        name: str | None = None,
        raise_on_device_loss: bool = False,
        backend: str = "numpy",
    ):
        super().__init__(
            OutOfCorePlan(shape, device, precision=precision),
            simulator,
            norm,
            fault_injector,
            retry_policy,
            verify,
            profiler,
            name or f"fft3d{next(_PLAN_IDS)}",
            raise_on_device_loss,
            backend,
        )
        self._dev_v: DeviceArray | None = None
        self._dev_w: DeviceArray | None = None
        self._ooc_estimate: OutOfCoreEstimate | None = None

    @property
    def out_of_core(self) -> bool:
        """True when the grid does not fit on the card."""
        return not self._ooc.fits_in_core

    # ------------------------------------------------------------------

    def _ensure_device_buffers(self) -> None:
        if self._dev_v is not None and self.simulator.is_allocated(self._dev_v):
            return
        alloc = self._executor.allocate
        self._dev_v = alloc(self.shape, self._dtype, f"{self._buf}-V")
        self._dev_w = alloc(self.shape, self._dtype, f"{self._buf}-WORK")

    def _attempt_in_core(
        self, x: np.ndarray, inverse: bool, out: np.ndarray, e_in: float | None
    ) -> np.ndarray:
        self._ensure_device_buffers()
        assert self._dev_v is not None
        # Staged: a faulted spectrum lands in a pooled buffer, not in
        # place, so an ECC upset on the last launch hits the discarded input.
        self._round_trip(
            x, self._dev_v, out, inverse, None, self._buf, e_in,
            "in-core transform", staged=True,
        )
        return out

    def _host_fallback(
        self,
        x: np.ndarray,
        inverse: bool,
        reason: str,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Graceful degradation: this engine's plan on the host, charged as host time."""
        # The device buffers are dead weight from here on: free them (a
        # reset discards them anyway) instead of leaking the capacity.
        self.release()
        if not self.out_of_core:
            return super()._host_fallback(x, inverse, reason, out)
        self._executor.host_fallback(self.shape, self._dtype, reason, self._buf)
        return self._forward_normed(
            partial(self._ooc.execute, workspace=self.workspace), x, inverse
        )

    def _run_in_core(
        self, x: np.ndarray, inverse: bool, out: np.ndarray | None
    ) -> np.ndarray:
        if out is None:
            out = np.empty(self.shape, self._dtype)
        e_in = self._input_energy(x)
        resets = 0
        corruption_retries = 0
        while True:
            try:
                return self._attempt_in_core(x, inverse, out, e_in)
            except DeviceLostError:
                self._dev_v = self._dev_w = None  # allocations died with card
                if self.raise_on_device_loss:
                    raise
                resets += 1
                if resets > self.retry_policy.max_device_resets:
                    return self._host_fallback(x, inverse, "device lost", out)
                self._executor.reset_device()
            except CorruptionError:
                corruption_retries += 1
                if corruption_retries >= self.retry_policy.max_attempts:
                    return self._host_fallback(
                        x, inverse, "persistent corruption", out
                    )
                self._executor.backoff(corruption_retries - 1, "ecc")
            except FaultError as exc:
                # Transfer/launch/allocation retries already exhausted in
                # the executor: repeated device failure, so degrade.
                return self._host_fallback(x, inverse, type(exc).__name__, out)

    def _forward_normed(self, forward, x: np.ndarray, inverse: bool) -> np.ndarray:
        """``forward`` (un-normalized) in ``inverse``'s direction, normalized.

        The inverse is the forward transform of the conjugate, conjugated.
        """
        out = forward(np.conj(x) if inverse else x)
        if inverse:
            np.conj(out, out=out)
        return apply_norm(out, self.total_elements, self.norm, inverse)

    def _run_out_of_core(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        staged = partial(
            run_out_of_core,
            self._ooc,
            self.out_of_core_estimate(),
            executor=self._executor,
            verify=self._verify,
            name=f"{self._buf}-ooc",
            workspace=self.workspace,
        )
        try:
            return self._forward_normed(staged, x, inverse)
        except FaultError as exc:
            if self.raise_on_device_loss and isinstance(exc, DeviceLostError):
                raise
            return self._host_fallback(x, inverse, type(exc).__name__)

    def _run(
        self,
        x: np.ndarray,
        inverse: bool,
        force_host: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, got {x.shape}")
        self._check_out(out, self.shape)
        with self.simulator.annotate(plan=self._buf):
            with self.simulator.fault_scope(self._injector):
                x = self._own_input(x, out)
                if force_host:
                    res = self._host_fallback(x, inverse, "forced", out)
                elif self.out_of_core:
                    res = self._run_out_of_core(x, inverse)
                else:
                    res = self._run_in_core(x, inverse, out)
        if out is None or res is out:
            return res
        np.copyto(out, res)
        return out

    # ------------------------------------------------------------------

    def estimate(self) -> FFT3DEstimate:
        """Performance prediction for one on-board transform."""
        return estimate_fft3d(
            self.device, self.shape, self.precision, self.simulator.memsystem
        )

    def out_of_core_estimate(self) -> OutOfCoreEstimate:
        """Cached Table-12-style estimate (out-of-core plans only)."""
        if self._ooc_estimate is None:
            self._ooc_estimate = self._ooc.estimate()
        return self._ooc_estimate

    def release(self) -> None:
        """Free the device buffers (a no-op for buffers lost to a reset)."""
        for arr in (self._dev_v, self._dev_w):
            if arr is not None and self.simulator.is_allocated(arr):
                self.simulator.free(arr)
        self._dev_v = self._dev_w = None


def gpu_fft3d(
    x: np.ndarray,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot forward 3-D FFT through the simulated GPU path."""
    x = np.asarray(x)
    with GpuFFT3D(x.shape, device=device, norm=norm) as plan:
        return plan.forward(x)


def gpu_ifft3d(
    x: np.ndarray,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot inverse 3-D FFT through the simulated GPU path."""
    x = np.asarray(x)
    with GpuFFT3D(x.shape, device=device, norm=norm) as plan:
        return plan.inverse(x)
