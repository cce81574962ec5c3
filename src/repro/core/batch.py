"""Batched, stream-pipelined execution of same-shape 3-D transforms.

One :class:`~repro.core.api.GpuFFT3D` transform serializes three phases
on the simulated clock: upload, five kernels, download.  A workload that
runs *many* same-shape transforms (a docking search scores one ligand
grid per rotation; a multi-GPU rank drains a queue of slabs) can overlap
them instead — the paper's Section 4.4 observation ("the latest devices
support asynchronous transfers") applied batch-wide:

    H2D(i+1)  ||  kernels(i)  ||  D2H(i-1)

:class:`BatchedGpuFFT3D` drives that pipeline through the simulator's
stream/engine model (:mod:`repro.gpu.simulator`): each of ``n_streams``
buffer slots owns a numbered stream; entry ``i`` runs on slot ``i %
n_streams``, so the stream order enforces the buffer-reuse hazard (entry
``i`` cannot upload before entry ``i - n_streams`` finished downloading)
while the three engines overlap across streams.  With the default three
slots the steady-state cost per cube is the *largest* of the three phase
times instead of their sum.

The plan itself is shared: construction goes through the process-wide
:data:`~repro.core.plan_cache.PLAN_CACHE`, so a thousand-rotation search
pays for twiddle tables and kernel specs exactly once.

Faults are first-class and *entry-scoped*: transfers are checksummed and
retried, rejected launches retried with backoff, ECC upsets caught by the
Parseval check and retried, and an unrecoverable fault degrades only the
afflicted entry to the host transform — entries ``i±1`` keep their
pipelined results.  Device loss resets the card, re-allocates the slots
and resumes with the first unfinished entry (completed entries live in
host memory and are unaffected).

The transfer, launch and allocation retries, the device reset and the
host fallback are :class:`~repro.core.resilient.ResilientExecutor`'s,
called with the slot's stream; construction, the five launches and the
Parseval check come from :class:`~repro.core.resilient.ResilientEngine`.
This module keeps the entry-level ECC loop (``_run_entry``), the
batch-level reset budget (``_run``) and the slots.  With no fault
injector in scope each entry is transformed straight from the caller's
array into its row of the result, norm scale included; the slot
transfers are charged but nothing is copied
(:meth:`~repro.core.resilient.ResilientEngine._round_trip`).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.core.out_of_core import OutOfCorePlan
from repro.core.resilient import ResilientEngine, RetryPolicy
from repro.gpu.faults import (
    CorruptionError,
    DeviceLostError,
    FaultError,
    FaultInjector,
)
from repro.gpu.simulator import DeviceArray, DeviceMemoryError, DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["BatchedGpuFFT3D", "gpu_fft3d_batch"]

#: Monotonic ids so slot buffer names never collide across batch engines
#: sharing one simulator.
_BATCH_IDS = count()


class _Slot:
    """One pipeline stage: a stream plus its V/WORK device buffers."""

    __slots__ = ("stream", "v", "w")

    def __init__(self, stream: int, v: DeviceArray, w: DeviceArray):
        self.stream = stream
        self.v = v
        self.w = w


class BatchedGpuFFT3D(ResilientEngine):
    """Run batches of same-shape transforms through one pipelined plan.

    Parameters mirror :class:`~repro.core.api.GpuFFT3D` plus:

    n_streams:
        Pipeline depth — how many entries may be in flight at once (each
        holds a V + WORK buffer pair on the card).  Three suffices to
        keep all three engines busy; the engine shrinks the depth
        automatically if device memory cannot hold that many slots.
    profiler:
        Optional :class:`repro.obs.Profiler` attached to the simulator;
        every pipelined operation is captured as a span tagged with this
        engine's plan id and the batch entry index it belongs to.
    name:
        Optional stable plan id (buffer prefix + trace tag); defaults to
        a process-unique ``batchN``.
    raise_on_device_loss:
        When True a :class:`~repro.gpu.faults.DeviceLostError` propagates
        to the caller (after the engine forgets its dead slots) instead
        of being recovered in-engine by reset-and-resume.  The serving
        layer uses this so a card loss surfaces as a *batch* failure it
        can answer with worker ejection and loss-free re-queueing onto
        surviving cards; standalone callers keep the default in-engine
        recovery.
    backend:
        Hot-path implementation (``"numpy"``/``"cjit"``/``"auto"``),
        resolved exactly as in :class:`~repro.core.api.GpuFFT3D` — cjit
        degrades cleanly to NumPy and never changes results beyond the
        bound of DESIGN.md §18.

    The batched path is in-core only: grids larger than device memory
    take the out-of-core path via :class:`~repro.core.api.GpuFFT3D`.
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
        n_streams: int = 3,
        profiler: Profiler | None = None,
        name: str | None = None,
        raise_on_device_loss: bool = False,
        backend: str = "numpy",
    ):
        if n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        ooc = OutOfCorePlan(shape, device, precision=precision)
        if not ooc.fits_in_core:
            raise ValueError(
                f"{ooc.shape} does not fit on {device.name}; the batched "
                "pipeline is in-core only — use GpuFFT3D's out-of-core path"
            )
        super().__init__(
            ooc,
            simulator,
            norm,
            fault_injector,
            retry_policy,
            verify,
            profiler,
            name or f"batch{next(_BATCH_IDS)}",
            raise_on_device_loss,
            backend,
        )
        self.n_streams = n_streams
        self._slots: list[_Slot] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Pipeline depth actually in use (0 before the first batch)."""
        return len(self._slots)

    def pipeline_report(self) -> dict[str, float]:
        """Makespan vs per-engine busy time — how well the overlap worked."""
        busy = self.simulator.engine_busy_seconds()
        busy["elapsed"] = self.simulator.elapsed
        return busy

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _ensure_slots(self, needed: int | None = None) -> None:
        """Hold enough live slots for ``needed`` in-flight entries.

        The pipeline never needs more slots than batch entries, so a
        singleton batch (a server dispatching an uncoalesced request)
        allocates one V/WORK pair, not ``n_streams`` of them.  Slots left
        over from a deeper earlier batch are kept — they are already
        paid for and the modulo mapping uses whatever depth exists.
        """
        target = self.n_streams if needed is None else min(self.n_streams, needed)
        target = max(target, 1)
        if (
            len(self._slots) >= target
            and all(
                self.simulator.is_allocated(s.v) and self.simulator.is_allocated(s.w)
                for s in self._slots
            )
        ):
            return
        self.release()
        alloc = self._executor.allocate
        for j in range(target):
            try:
                v = alloc(self.shape, self._dtype, f"{self._buf}-s{j}-V")
                try:
                    w = alloc(self.shape, self._dtype, f"{self._buf}-s{j}-WORK")
                except Exception:
                    self.simulator.free(v)  # never strand half a slot
                    raise
            except DeviceMemoryError:
                if j == 0:
                    raise
                break  # shallower pipeline than asked for, but it runs
            self._slots.append(_Slot(j, v, w))

    def release(self) -> None:
        """Free every slot's device buffers; the engine stays reusable."""
        for s in self._slots:
            for arr in (s.v, s.w):
                if self.simulator.is_allocated(arr):
                    self.simulator.free(arr)
        self._slots.clear()

    # ------------------------------------------------------------------
    # Pipelined execution
    # ------------------------------------------------------------------

    def _coerce_batch(self, xs) -> list[np.ndarray]:
        if isinstance(xs, np.ndarray) and xs.ndim == 4:
            entries = [xs[i] for i in range(xs.shape[0])]
        else:
            entries = list(xs)
        out = []
        for i, x in enumerate(entries):
            x = as_complex_array(x, self.precision)
            if x.shape != self.shape:
                raise ValueError(
                    f"batch entry {i} has shape {x.shape}; plan is for {self.shape}"
                )
            out.append(x)
        return out

    def _run(
        self,
        xs,
        inverse: bool,
        force_host: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        entries = self._coerce_batch(xs)
        self._check_out(out, (len(entries), *self.shape))
        # Results land directly in the stacked block: no per-entry
        # staging buffer and no stacking copy.  The block itself is the
        # caller-owned return value — the one allocation the transform
        # loop legitimately makes (none with ``out=``).
        final = out
        if final is None:
            final = np.empty((len(entries), *self.shape), self._dtype)
        if not entries:
            return final
        with self.simulator.annotate(plan=self._buf), self.simulator.fault_scope(
            self._injector
        ):
            entries = [self._own_input(x, out) for x in entries]
            resets = 0
            dead = force_host  # device given up on: host path for the rest
            for i, x in enumerate(entries):
                target = final[i]
                e_in = self._input_energy(x)
                with self.simulator.annotate(entry=i):
                    while True:
                        if dead:
                            reason = "forced" if force_host else "device lost"
                            self._host_fallback(x, inverse, reason, out=target)
                            break
                        try:
                            self._ensure_slots(len(entries))
                            slot = self._slots[i % len(self._slots)]
                            self._run_entry(i, x, slot, inverse, target, e_in)
                            break
                        except DeviceLostError:
                            # Only entry i was in flight functionally;
                            # finished entries already live in host memory.
                            self._slots.clear()  # allocations died with card
                            if self.raise_on_device_loss:
                                raise
                            resets += 1
                            if resets > self.retry_policy.max_device_resets:
                                dead = True
                                continue
                            self._executor.reset_device()
                        except FaultError as exc:
                            # Retries exhausted for this entry alone:
                            # degrade it, keep the pipeline for neighbours.
                            self._host_fallback(
                                x, inverse, type(exc).__name__, out=target
                            )
                            break
            self.simulator.synchronize()
        return final

    def _run_entry(
        self,
        i: int,
        x: np.ndarray,
        slot: _Slot,
        inverse: bool,
        target: np.ndarray,
        e_in: float | None,
    ) -> None:
        label = f"{self._buf}-e{i}"
        corruption_retries = 0
        while True:
            try:
                # Unstaged: a faulted entry is transformed in place on the
                # device buffer — the five-step chain only reads its input
                # during step 1, so the spectrum can land where the signal was.
                self._round_trip(
                    x, slot.v, target, inverse, slot.stream, label, e_in,
                    f"batch entry {label!r}",
                )
                return
            except CorruptionError:
                corruption_retries += 1
                if corruption_retries >= self.retry_policy.max_attempts:
                    raise
                self._executor.backoff(corruption_retries - 1, "ecc")


def gpu_fft3d_batch(
    xs,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot pipelined forward FFT of a batch of same-shape cubes."""
    entries = xs if isinstance(xs, np.ndarray) else np.asarray(xs)
    with BatchedGpuFFT3D(entries.shape[1:], device=device, norm=norm) as plan:
        return plan.forward(entries)
