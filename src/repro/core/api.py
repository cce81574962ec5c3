"""High-level public API for the bandwidth-intensive GPU 3-D FFT.

:class:`GpuFFT3D` is what a downstream application (e.g. the docking code
in :mod:`repro.apps.docking`) uses: plan once, transform many times, and —
when given a :class:`~repro.gpu.simulator.DeviceSimulator` — have every
launch and transfer accounted on the simulated timeline.

The plan is *resilient* by construction: transfers are checksummed and
retried, rejected launches are retried with backoff, a lost device is
reset and the transform resumed (from the last completed slab checkpoint
on the out-of-core path), and when the device keeps failing the plan
degrades to the host reference transform
(:class:`repro.fft.plan.PlanND`) and records the downgrade.  All of this
is driven by an optional :class:`~repro.gpu.faults.FaultInjector`; with
no injector attached the resilient machinery adds zero simulated time.
The cost of robustness is surfaced via :meth:`GpuFFT3D.resilience_report`.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.core.estimator import FFT3DEstimate, estimate_fft3d
from repro.core.out_of_core import OutOfCoreEstimate, OutOfCorePlan
from repro.core.plan_cache import PLAN_CACHE
from repro.core.workspace import Workspace
from repro.core.resilient import (
    ResilienceReport,
    ResilientExecutor,
    RetryPolicy,
    energy_preserved,
    run_out_of_core,
)
from repro.fft.normalization import apply_norm
from repro.fft.plan import PlanND
from repro.gpu.faults import (
    AllocationError,
    CorruptionError,
    DeviceLostError,
    FaultError,
    FaultInjector,
)
from repro.gpu.simulator import DeviceArray, DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.util.units import flops_3d_fft
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["GpuFFT3D", "gpu_fft3d", "gpu_ifft3d"]

#: Monotonic plan ids so device buffer names never collide when several
#: plans share one simulator.
_PLAN_IDS = count()


class GpuFFT3D:
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
        if isinstance(shape, int):
            shape = (shape, shape, shape)
        self.raise_on_device_loss = raise_on_device_loss
        self.device = device
        self.norm = norm
        self.precision = precision
        self._injector = None
        if simulator is None:
            # A plan-owned simulator can carry the injector directly.
            simulator = DeviceSimulator(device, fault_injector=fault_injector)
        elif fault_injector is not None:
            if simulator.faults is not None and simulator.faults is not fault_injector:
                raise ValueError(
                    "simulator already has a different fault injector; "
                    "plans sharing a simulator must share one injector"
                )
            if simulator.faults is None:
                # Shared simulator: never mutate it — scope the injector
                # to this plan's transforms so sibling plans stay clean.
                self._injector = fault_injector
        self.simulator = simulator
        self._ooc = OutOfCorePlan(shape, device, precision=precision)
        self.shape = self._ooc.shape
        self._plan = PLAN_CACHE.five_step(
            self.shape, precision, device, backend=backend
        )
        self._dev_v: DeviceArray | None = None
        self._dev_w: DeviceArray | None = None
        self._buf = name or f"fft3d{next(_PLAN_IDS)}"
        self.profiler = profiler
        if profiler is not None:
            profiler.attach(self.simulator)
        self.retry_policy = retry_policy or RetryPolicy()
        self.resilience = ResilienceReport()
        self._executor = ResilientExecutor(
            self.simulator, self.retry_policy, self.resilience
        )
        self._verify = (
            (fault_injector is not None or self.simulator.faults is not None)
            if verify is None
            else verify
        )
        self.workspace = Workspace(
            name=self._buf,
            metrics=profiler.metrics if profiler is not None else None,
        )
        self._ooc_estimate: OutOfCoreEstimate | None = None

    @property
    def plan_id(self) -> str:
        """The id tagged onto this plan's buffers and trace spans."""
        return self._buf

    @property
    def out_of_core(self) -> bool:
        """True when the grid does not fit on the card."""
        return not self._ooc.fits_in_core

    @property
    def total_elements(self) -> int:
        nz, ny, nx = self.shape
        return nz * ny * nx

    # ------------------------------------------------------------------

    def _allocate_retrying(self, shape, dtype, name: str) -> DeviceArray:
        last = self.retry_policy.max_attempts - 1
        for attempt in range(self.retry_policy.max_attempts):
            try:
                return self.simulator.allocate(shape, dtype, name)
            except AllocationError:
                if attempt == last:
                    raise
                self._executor.backoff(attempt, "alloc")
        raise AssertionError("unreachable")

    def _ensure_device_buffers(self) -> None:
        if self._dev_v is not None and self.simulator.is_allocated(self._dev_v):
            return
        dtype = np.complex64 if self.precision == "single" else np.complex128
        self._dev_v = self._allocate_retrying(self.shape, dtype, f"{self._buf}-V")
        self._dev_w = self._allocate_retrying(self.shape, dtype, f"{self._buf}-WORK")

    def _attempt_in_core(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        wall = self._plan.ensure_compiled()
        if wall:
            # First transform on a JIT plan pays the kernel warm-up; make
            # it a visible host span instead of unexplained latency.
            self.simulator.charge(f"{self._buf}-jit.compile", wall, "host")
        self._ensure_device_buffers()
        assert self._dev_v is not None
        ex = self._executor
        ex.h2d(x, self._dev_v, f"{self._buf}-h2d")
        specs = PLAN_CACHE.step_specs(
            self.shape, self.precision, self.device, backend=self._plan.backend
        )
        result: dict[str, np.ndarray] = {}
        ws = self.workspace

        def body() -> None:
            buf = ws.acquire(self.shape, self._dev_v.data.dtype)
            result["out"] = self._plan.execute(
                self._dev_v.data, inverse=inverse, workspace=ws, out=buf
            )

        try:
            # Launch the five kernels; the functional work happens on the
            # last launch (one pass through the plan), the timing on each.
            for spec in specs[:-1]:
                ex.launch(spec)
            ex.launch(specs[-1], body)
            if self._verify:
                e_in = float(np.vdot(x, x).real)
                e_out = float(np.vdot(result["out"], result["out"]).real)
                if not energy_preserved(e_in, e_out, float(self.total_elements)):
                    raise CorruptionError(
                        "in-core transform violated the energy invariant "
                        "(likely an ECC upset of a device buffer)"
                    )
            np.copyto(self._dev_v.data, result["out"])
        finally:
            ws.release(result.get("out"))
        out = np.empty_like(x)
        ex.d2h(self._dev_v, out, f"{self._buf}-d2h")
        return out

    def _host_fallback(self, x: np.ndarray, inverse: bool, reason: str) -> np.ndarray:
        """Graceful degradation: host reference transform, charged as host time."""
        self.resilience.downgrades.append(f"host-fallback: {reason}")
        if self.simulator.device_lost:
            self.simulator.reset_device()
            self.resilience.device_resets += 1
        # The device buffers are dead weight from here on: free them (a
        # reset already discarded them) instead of leaking the capacity.
        self.release()
        from repro.baselines.fftw_cpu import FftwCpuBaseline

        rate = FftwCpuBaseline(precision=self.precision).sustained_gflops(self.shape)
        nz, ny, nx = self.shape
        self.simulator.charge(
            f"{self._buf}-host-fallback",
            flops_3d_fft(nx, ny, nz) / (rate * 1e9),
            "host",
        )
        plan = PlanND(self.shape, precision=self.precision)
        if inverse:
            return np.conj(plan.execute(np.conj(x)))
        return plan.execute(x)

    def _run_in_core(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        resets = 0
        corruption_retries = 0
        while True:
            try:
                return self._attempt_in_core(x, inverse)
            except DeviceLostError:
                self._dev_v = self._dev_w = None  # allocations died with card
                if self.raise_on_device_loss:
                    raise
                resets += 1
                self.resilience.device_resets += 1
                if resets > self.retry_policy.max_device_resets:
                    return self._host_fallback(x, inverse, "device lost")
                self.simulator.reset_device()
            except CorruptionError:
                corruption_retries += 1
                if corruption_retries >= self.retry_policy.max_attempts:
                    return self._host_fallback(x, inverse, "persistent corruption")
                self._executor.backoff(corruption_retries - 1, "ecc")
            except FaultError as exc:
                # Transfer/launch/allocation retries already exhausted in
                # the executor: repeated device failure, so degrade.
                return self._host_fallback(x, inverse, type(exc).__name__)

    def _run_out_of_core(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        est = self.out_of_core_estimate()
        y = np.conj(x) if inverse else x
        try:
            out = run_out_of_core(
                self._ooc,
                est,
                y,
                self._executor,
                verify=self._verify,
                name=f"{self._buf}-ooc",
                workspace=self.workspace,
            )
        except FaultError as exc:
            if self.raise_on_device_loss and isinstance(exc, DeviceLostError):
                raise
            return self._host_fallback(x, inverse, type(exc).__name__)
        return np.conj(out) if inverse else out

    def _run(
        self, x: np.ndarray, inverse: bool, force_host: bool = False
    ) -> np.ndarray:
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, got {x.shape}")
        with self.simulator.annotate(plan=self._buf):
            with self.simulator.fault_scope(self._injector):
                if force_host:
                    out = self._host_fallback(x, inverse, "forced")
                elif self.out_of_core:
                    out = self._run_out_of_core(x, inverse)
                else:
                    out = self._run_in_core(x, inverse)
        return apply_norm(out, self.total_elements, self.norm, inverse)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward transform; matches ``numpy.fft.fftn`` (default norm)."""
        return self._run(x, inverse=False)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse transform; matches ``numpy.fft.ifftn`` (default norm)."""
        return self._run(x, inverse=True)

    def execute(
        self, x: np.ndarray, inverse: bool = False, force_host: bool = False
    ) -> np.ndarray:
        """One transform in either direction (the generic entry point).

        ``force_host`` skips the device entirely and runs the reference
        host transform (charged as host time) — the serving layer's
        degradation path when every worker card is ejected.
        """
        return self._run(x, inverse=inverse, force_host=force_host)

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

    def resilience_report(self) -> ResilienceReport:
        """The live resilience account, time fields synced to the simulator."""
        return self.resilience.capture_timeline(self.simulator)

    def release(self) -> None:
        """Free the device buffers (a no-op for buffers lost to a reset)."""
        for arr in (self._dev_v, self._dev_w):
            if arr is not None and self.simulator.is_allocated(arr):
                self.simulator.free(arr)
        self._dev_v = self._dev_w = None

    def close(self) -> None:
        """Tear the plan down: device buffers are freed, capacity returned.

        Subsequent transforms re-allocate transparently, so ``close`` is
        safe to call between bursts of work as well as at end of life.
        """
        self.release()

    def __enter__(self) -> "GpuFFT3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
