"""Resilient execution: retries, checksums, checkpoints, degradation.

The recovery side of the fault model in :mod:`repro.gpu.faults`.  Four
mechanisms, all accounted on the same simulated clock as the useful work
so the *cost* of robustness is a first-class observable:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter, charged to the device timeline as ``"backoff"``
  events;
* checksummed transfers — :class:`ResilientExecutor` CRCs every payload
  across the PCIe hop and re-sends on mismatch, which is what turns
  *silent* injected corruption into a retryable event.  The executor is
  the only place a device operation is retried: transfers and launches
  (synchronous, or on a stream for the batch pipeline), allocations,
  device resets and the host-fallback accounting all live on it, and
  :class:`ResilientEngine` — the base of
  :class:`~repro.core.api.GpuFFT3D` and
  :class:`~repro.core.batch.BatchedGpuFFT3D` — holds their shared
  construction, five-kernel launch and Parseval check;
* checkpointed out-of-core execution — :func:`run_out_of_core` stages the
  Section 3.3 pipeline through real simulated transfers with the stage-1
  slabs and stage-2 plane groups as natural checkpoints, so a mid-run
  device loss resumes from the last completed slab instead of re-paying
  the 2x-PCIe traffic from scratch;
* :class:`ResilienceReport` — attempts, retries by fault class,
  checkpoint restores, device resets (resets *performed*, counted only
  by :meth:`ResilientExecutor.reset_device`) and time lost to faults,
  surfaced by the plan that owns the transform.

The engines keep only their recovery *loops*: how many ECC recomputes
and device resets a transform (or a batch entry) gets before it
degrades, and which device buffers a degraded transform gives up.

Bytes cross the simulated link only while a fault injector is in scope.
Without one nothing can corrupt a payload or a device buffer, so
:meth:`ResilientEngine._round_trip` runs the five kernels straight from
the caller's array into the result: the device buffers alias host
memory (:meth:`~repro.gpu.simulator.DeviceArray.alias`), and the h2d and
d2h are charged and recorded exactly as copies would be, so the
simulated timeline and the :class:`ResilienceReport` do not change.

Energy verification (Parseval: an un-normalized FFT scales total energy
by exactly N) is the cheap invariant used to catch ECC upsets that
checksums cannot see because they happen *after* the data crossed the
bus.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.five_step import FiveStepPlan
from repro.core.out_of_core import OutOfCoreEstimate, OutOfCorePlan
from repro.core.plan_cache import PLAN_CACHE
from repro.core.workspace import Workspace
from repro.fft.normalization import scale_factor
from repro.gpu.faults import (
    AllocationError,
    CorruptionError,
    DeviceLostError,
    FaultInjector,
    KernelLaunchError,
    TransferError,
)
from repro.gpu.kernel import KernelSpec
from repro.gpu.simulator import DeviceArray, DeviceSimulator
from repro.util.units import flops_3d_fft
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = [
    "RetryPolicy",
    "ResilienceReport",
    "ResilientExecutor",
    "ResilientEngine",
    "checksum",
    "energy_preserved",
    "run_out_of_core",
]


def checksum(a: np.ndarray) -> int:
    """CRC32 of an array's bytes (the simulated link-layer checksum).

    The CRC is taken through the buffer protocol, so a contiguous array is
    checksummed with zero copies (``tobytes`` would materialize the whole
    payload a second time).
    """
    return zlib.crc32(np.ascontiguousarray(a))


def _energy(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def energy_preserved(
    e_in: float, e_out: float, scale: float, rtol: float = 1e-4
) -> bool:
    """Check the Parseval invariant ``e_out == scale * e_in`` within ``rtol``.

    An un-normalized N-point FFT scales total energy by exactly N; an ECC
    upset (modeled as an exponent-field bit-flip) violates this by many
    orders of magnitude, so a loose tolerance never false-positives on
    legitimate single-precision rounding.
    """
    expected = scale * e_in
    return abs(e_out - expected) <= rtol * expected + 1e-20


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up, per fault class.

    ``max_attempts`` bounds transfer/launch/corruption retries;
    ``max_device_resets`` bounds full device-loss recoveries before the
    caller degrades (host fallback or re-planned ranks).  Backoff is
    exponential with deterministic jitter and is charged to the simulated
    timeline — waiting is not free.
    """

    max_attempts: int = 4
    backoff_base_s: float = 100e-6
    backoff_factor: float = 2.0
    jitter: float = 0.25
    max_device_resets: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_device_resets < 0:
            raise ValueError("max_device_resets must be non-negative")

    def backoff_seconds(self, attempt: int, u: float) -> float:
        """Backoff before retry ``attempt`` (0-based); ``u`` in [0,1) jitters."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        t = self.backoff_base_s * self.backoff_factor**attempt
        return t * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass
class ResilienceReport:
    """What resilience cost: attempts, retries, restores, lost time.

    Time fields are filled by :meth:`capture_timeline` from the owning
    simulator so they share its clock; counter fields are maintained live
    by the executor and the checkpointed runners.
    """

    attempts: int = 0
    retries: dict[str, int] = field(default_factory=dict)
    checksum_failures: int = 0
    checkpoint_restores: int = 0
    device_resets: int = 0
    downgrades: list[str] = field(default_factory=list)
    backoff_seconds: float = 0.0
    fault_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def total_retries(self) -> int:
        """Retries across every fault class."""
        return sum(self.retries.values())

    @property
    def useful_seconds(self) -> float:
        """Simulated time not lost to failed work or backoff waits."""
        return self.total_seconds - self.fault_seconds - self.backoff_seconds

    @property
    def degraded(self) -> bool:
        """True when any downgrade (host fallback, re-plan) was taken."""
        return bool(self.downgrades)

    def note_retry(self, fault_class: str) -> None:
        """Count one retry attributed to ``fault_class``."""
        self.retries[fault_class] = self.retries.get(fault_class, 0) + 1

    def signature(self) -> tuple[int, int, int, int, int]:
        """Cheap comparable fingerprint of the fault-visible counters.

        Two signatures taken around a batch dispatch differ iff the
        engine absorbed any fault during it (a retry, checksum failure,
        checkpoint restore, device reset or downgrade).  The serving
        layer's health tracker uses exactly this to mark a batch — and
        every future that rode in it — as *faulted* without walking the
        timeline.  ``attempts`` is deliberately excluded: it advances on
        clean transfers too.
        """
        return (
            self.total_retries,
            self.checksum_failures,
            self.checkpoint_restores,
            self.device_resets,
            len(self.downgrades),
        )

    def absorb(self, other: "ResilienceReport") -> "ResilienceReport":
        """Fold ``other``'s counters into this report; returns self.

        The aggregation a server needs: one report per plan/engine rolls
        up into a fleet-wide account.  Counter fields add; the time
        fields are *not* summed (engines sharing one simulator share one
        clock — use :meth:`capture_timeline` on the aggregate instead).
        """
        self.attempts += other.attempts
        for fault_class, n in other.retries.items():
            self.retries[fault_class] = self.retries.get(fault_class, 0) + n
        self.checksum_failures += other.checksum_failures
        self.checkpoint_restores += other.checkpoint_restores
        self.device_resets += other.device_resets
        self.downgrades.extend(other.downgrades)
        return self

    def capture_timeline(self, sim: DeviceSimulator) -> "ResilienceReport":
        """Snapshot time accounting from ``sim``'s timeline; returns self."""
        self.fault_seconds = sim.fault_seconds
        self.backoff_seconds = sim.backoff_seconds
        self.total_seconds = sim.elapsed
        return self

    def summary(self) -> str:
        """Human-readable multi-line account of the resilience cost."""
        lines = [
            f"attempts:            {self.attempts}",
            f"retries:             {self.total_retries} "
            + (f"({self.retries})" if self.retries else "(none)"),
            f"checksum failures:   {self.checksum_failures}",
            f"checkpoint restores: {self.checkpoint_restores}",
            f"device resets:       {self.device_resets}",
            f"downgrades:          {', '.join(self.downgrades) or 'none'}",
        ]
        if self.total_seconds > 0:
            lost = self.fault_seconds + self.backoff_seconds
            lines.append(
                f"time lost to faults: {lost * 1e3:.3f} ms of "
                f"{self.total_seconds * 1e3:.3f} ms "
                f"({100.0 * lost / self.total_seconds:.1f}%)"
            )
        return "\n".join(lines)


class ResilientExecutor:
    """Retrying, checksumming front-end to a :class:`DeviceSimulator`.

    The one place a device operation is retried.  Every payload is CRC'd
    across the bus and re-sent on mismatch; aborted transfers, rejected
    launches and transient allocation failures are retried under the
    :class:`RetryPolicy`; all backoff waits are charged to the simulated
    timeline.  Transfers and launches take an optional ``stream`` and
    hand it to the simulator unchanged (``None`` is the default stream),
    so the single-transform and the pipelined batch engines share every
    retry loop.  Device loss is *not* retried here — it needs plan-level
    recovery (checkpoints, re-planning), so :class:`~repro.gpu.faults.DeviceLostError`
    propagates to the caller, which recovers through
    :meth:`reset_device`.

    With no fault injector attached the executor adds zero simulated
    time: checksums are host-side bookkeeping, and no backoff or repeat
    events are ever charged.
    """

    def __init__(
        self,
        sim: DeviceSimulator,
        policy: RetryPolicy | None = None,
        report: ResilienceReport | None = None,
        seed: int = 2008,
    ):
        self.sim = sim
        self.policy = policy or RetryPolicy()
        self.report = report or ResilienceReport()
        self._rng = np.random.default_rng(seed)

    def backoff(self, attempt: int, fault_class: str) -> float:
        """Charge one backoff wait to the timeline; returns its seconds."""
        t = self.policy.backoff_seconds(attempt, float(self._rng.random()))
        self.sim.charge(f"backoff-{fault_class}", t, kind="backoff")
        self.report.backoff_seconds += t
        self.report.note_retry(fault_class)
        return t

    def reset_device(self) -> None:
        """Reset a lost card and count it: ``device_resets`` is resets performed."""
        self.sim.reset_device()
        self.report.device_resets += 1

    def _retry(self, op, faults: dict[type, str], counted: bool = True):
        """Run ``op`` until it succeeds or the policy's attempts run out.

        ``faults`` maps each retryable exception type to the fault class
        its backoff is charged as; the last failure propagates.
        """
        last = self.policy.max_attempts - 1
        for attempt in range(self.policy.max_attempts):
            if counted:
                self.report.attempts += 1
            try:
                return op()
            except tuple(faults) as exc:
                if attempt == last:
                    raise
                self.backoff(attempt, faults[type(exc)])
        raise AssertionError("unreachable")

    def allocate(self, shape, dtype, name: str) -> DeviceArray:
        """Allocate a device array, retrying transient allocation failures.

        Capacity exhaustion
        (:class:`~repro.gpu.simulator.DeviceMemoryError`) is not transient
        and propagates at once.  Allocations do not count as attempts.
        """
        return self._retry(
            partial(self.sim.allocate, shape, dtype, name),
            {AllocationError: "alloc"},
            counted=False,
        )

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def _transfer(self, copy, received: np.ndarray, expected: int | None, what: str):
        def attempt():
            t = copy()
            if expected is not None and checksum(received) != expected:
                self.report.checksum_failures += 1
                raise CorruptionError(
                    f"{what}: checksum mismatch persisted through "
                    f"{self.policy.max_attempts} attempts"
                )
            return t

        return self._retry(
            attempt, {TransferError: "transfer", CorruptionError: "corruption"}
        )

    def h2d(
        self,
        host: np.ndarray,
        dev: DeviceArray,
        label: str = "h2d",
        stream: int | None = None,
    ) -> float:
        """Checksummed host->device copy with bounded retries.

        Returns the copy's simulated seconds.  Checksums exist to catch
        *injected* transfer corruption; with no fault injector attached
        to the simulator nothing can corrupt the payload, so the CRC
        passes (two full passes over the data per hop) are skipped.  The
        retry accounting is identical either way.
        """
        expected = (
            checksum(
                np.asarray(host).reshape(dev.shape).astype(dev.dtype, copy=False)
            )
            if self.sim.faults is not None
            else None
        )
        return self._transfer(
            partial(self.sim.h2d, host, dev, label, stream=stream),
            dev.data, expected, f"h2d {label!r}",
        )

    def d2h(
        self,
        dev: DeviceArray,
        host: np.ndarray,
        label: str = "d2h",
        stream: int | None = None,
    ) -> float:
        """Checksummed device->host copy with bounded retries.

        ``stream`` and the CRC skip behave as in :meth:`h2d`.
        """
        expected = (
            checksum(dev.data.reshape(host.shape).astype(host.dtype, copy=False))
            if self.sim.faults is not None
            else None
        )
        return self._transfer(
            partial(self.sim.d2h, dev, host, label, stream=stream),
            host, expected, f"d2h {label!r}",
        )

    # ------------------------------------------------------------------
    # Launches
    # ------------------------------------------------------------------

    def launch(
        self, spec: KernelSpec, body=None, *args, stream: int | None = None, **kwargs
    ) -> float:
        """Launch a spec'd kernel on ``stream``, retrying rejections."""
        return self._retry(
            partial(self.sim.launch, spec, body, *args, stream=stream, **kwargs),
            {KernelLaunchError: "launch"},
        )

    def launch_timed(
        self, label: str, seconds: float, body=None, *args, **kwargs
    ) -> float:
        """Launch with precomputed timing, retrying rejected launches."""
        return self._retry(
            partial(self.sim.launch_timed, label, seconds, body, *args, **kwargs),
            {KernelLaunchError: "launch"},
        )

    def host_fallback(
        self, shape: tuple[int, int, int], dtype, reason: str, label: str
    ) -> None:
        """Account one transform degraded to the host, charged as host time.

        Records the downgrade, resets a lost card (so the next transform
        finds a live device) and charges the transform at the FFTW
        baseline's sustained rate as a ``{label}-host-fallback`` host
        span.  The engine computes the result itself, with its own plan.
        """
        from repro.baselines.fftw_cpu import FftwCpuBaseline

        self.report.downgrades.append(f"host-fallback: {reason}")
        if self.sim.device_lost:
            self.reset_device()
        precision = "single" if np.dtype(dtype) == np.complex64 else "double"
        rate = FftwCpuBaseline(precision=precision).sustained_gflops(shape)
        nz, ny, nx = shape
        self.sim.charge(
            f"{label}-host-fallback",
            flops_3d_fft(nx, ny, nz) / (rate * 1e9),
            "host",
        )


class ResilientEngine:
    """Construction and device recovery shared by the transform engines.

    :class:`~repro.core.api.GpuFFT3D` and
    :class:`~repro.core.batch.BatchedGpuFFT3D` differ only in how they
    schedule work (one synchronous transform vs a stream pipeline) and
    in their recovery *loops*; everything else lives here: injector
    scoping, the default ``verify``, the :class:`ResilientExecutor`, the
    workspace, the profiler attach, the ``out=`` contract, the device
    round trip (zero-copy or staged, :meth:`_round_trip`), the Parseval
    check and the host fallback.  Subclasses define ``_run`` and
    :meth:`release`.
    """

    def __init__(
        self,
        ooc: OutOfCorePlan,
        simulator: DeviceSimulator | None,
        norm: str,
        fault_injector: FaultInjector | None,
        retry_policy: RetryPolicy | None,
        verify: bool | None,
        profiler: Profiler | None,
        name: str,
        raise_on_device_loss: bool,
        backend: str,
    ):
        self._ooc = ooc
        self.shape = ooc.shape
        self.device = ooc.device
        self.precision = ooc.precision
        self.norm = norm
        self.raise_on_device_loss = raise_on_device_loss
        self._injector = None
        if simulator is None:
            # A plan-owned simulator can carry the injector directly.
            simulator = DeviceSimulator(self.device, fault_injector=fault_injector)
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
        self._plan = PLAN_CACHE.five_step(
            self.shape, self.precision, self.device, backend=backend
        )
        # The plan's kernel specs, held for the engine's life: every
        # transform launches these same five objects, so the simulator
        # prices each once (DeviceSimulator._price).
        self._specs = PLAN_CACHE.step_specs(
            self.shape, self.precision, self.device, backend=backend
        )
        self._buf = name
        self.profiler = profiler
        if profiler is not None:
            profiler.attach(simulator)
        self.retry_policy = retry_policy or RetryPolicy()
        self.resilience = ResilienceReport()
        self._executor = ResilientExecutor(
            simulator, self.retry_policy, self.resilience
        )
        self._verify = (
            (fault_injector is not None or simulator.faults is not None)
            if verify is None
            else verify
        )
        self.workspace = Workspace(
            name=name, metrics=profiler.metrics if profiler is not None else None
        )

    @property
    def plan_id(self) -> str:
        """The id tagged onto this engine's buffers and trace spans."""
        return self._buf

    @property
    def total_elements(self) -> int:
        """Points per transform (the Parseval scale)."""
        nz, ny, nx = self.shape
        return nz * ny * nx

    @property
    def _dtype(self) -> type:
        return np.complex64 if self.precision == "single" else np.complex128

    def resilience_report(self) -> ResilienceReport:
        """The live resilience account, time fields synced to the simulator."""
        return self.resilience.capture_timeline(self.simulator)

    def forward(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Forward transform; matches ``numpy.fft.fftn`` (per batch entry).

        ``out`` receives the result instead of a fresh array (see
        :meth:`execute`).
        """
        return self._run(x, inverse=False, out=out)

    def inverse(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse transform; matches ``numpy.fft.ifftn`` (per batch entry)."""
        return self._run(x, inverse=True, out=out)

    def execute(
        self,
        x,
        inverse: bool = False,
        force_host: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One transform (or batch) in either direction.

        ``force_host`` skips the device entirely and runs the engine's
        own plan on the host (charged as host time) — the serving
        layer's guaranteed-progress degradation when every worker card
        is ejected.  The result bits are the device path's; the
        downgrades are recorded in :attr:`resilience`.

        ``out`` — a writeable, C-contiguous array of the result's shape
        (``(batch, *shape)`` for the batch engine) and dtype — receives
        the result and is returned; anything else raises ``ValueError``.
        It may be ``x`` itself (an in-place transform).
        """
        return self._run(x, inverse=inverse, force_host=force_host, out=out)

    def release(self) -> None:
        """Free the engine's device buffers (no-op for buffers lost to a reset)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the engine down: device buffers are freed, capacity returned.

        Subsequent transforms re-allocate transparently, so ``close`` is
        safe to call between bursts of work as well as at end of life.
        """
        self.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery building blocks
    # ------------------------------------------------------------------

    def _check_out(self, out: np.ndarray | None, shape: tuple[int, ...]) -> None:
        """Reject an ``out=`` the transform could not write its result into."""
        if out is None:
            return
        if not isinstance(out, np.ndarray) or out.shape != shape or (
            out.dtype != self._dtype
        ):
            got = (
                f"{out.shape} {out.dtype}"
                if isinstance(out, np.ndarray)
                else type(out).__name__
            )
            raise ValueError(f"out must be {shape} {np.dtype(self._dtype)}, got {got}")
        if not out.flags.c_contiguous or not out.flags.writeable:
            raise ValueError("out must be C-contiguous and writeable")

    def _own_input(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``x``, or a private copy when a faulted run might recompute from it.

        With an injector in scope a download can land in ``out`` and the
        transform still be retried (a download corrupted on every
        attempt, a device loss) or degraded to the host, both of which
        read ``x`` again: an ``out`` overlapping ``x`` would hand them the
        partial result.  Call inside the engine's fault scope.
        """
        if (
            out is not None
            and self.simulator.faults is not None
            and np.may_share_memory(x, out)
        ):
            return x.copy()
        return x

    def _input_energy(self, x: np.ndarray) -> float | None:
        """The Parseval input energy, taken before ``x`` can be overwritten."""
        return _energy(x) if self._verify else None

    def _round_trip(
        self,
        x: np.ndarray,
        v: DeviceArray,
        out: np.ndarray,
        inverse: bool,
        stream: int | None,
        label: str,
        e_in: float | None,
        what: str,
        staged: bool = False,
    ) -> None:
        """Upload ``x`` to ``v``, run the five kernels, download into ``out``.

        The one place that decides whether bytes cross the simulated
        link.  With no fault injector in scope they do not: ``v`` aliases
        the caller's memory, the kernels read ``x`` and write ``out``
        directly, and the h2d/d2h are charged and recorded exactly as
        the copies would be (same label, bytes, seconds, start and
        stream).  With an injector the payload really travels: it is
        uploaded into ``v``, transformed in place there (or, when
        ``staged``, into a pooled buffer that is then copied back into
        ``v``) and downloaded, so transfer corruption, ECC upsets and the
        checksums act on real device buffers.
        """
        ex = self._executor
        if self.simulator.faults is None:
            ex.h2d(x, v.alias(x), f"{label}-h2d", stream=stream)
            self._launch_transform(x, out, inverse, stream)
            self._check_energy(e_in, out, inverse, what)
            ex.d2h(v.alias(out), out, f"{label}-d2h", stream=stream)
            return
        ex.h2d(x, v, f"{label}-h2d", stream=stream)
        stage = self.workspace.acquire(self.shape, self._dtype) if staged else None
        try:
            dst = v.data if stage is None else stage
            self._launch_transform(v.data, dst, inverse, stream)
            self._check_energy(e_in, dst, inverse, what)
            if stage is not None:
                np.copyto(v.data, stage)
        finally:
            self.workspace.release(stage)
        ex.d2h(v, out, f"{label}-d2h", stream=stream)

    def _launch_transform(
        self, src: np.ndarray, out: np.ndarray, inverse: bool, stream: int | None
    ) -> None:
        """The five kernels on ``stream``, transforming ``src`` into ``out``.

        The functional work rides the last launch (one pass through the
        plan, with the norm scale fused into step 5), the timing all five.
        The first transform on a JIT plan pays the kernel warm-up, charged
        as a visible host span instead of unexplained latency.
        """
        wall = self._plan.ensure_compiled()
        if wall:
            self.simulator.charge(f"{self._buf}-jit.compile", wall, "host")
        for spec in self._specs[:-1]:
            self._executor.launch(spec, stream=stream)
        self._executor.launch(
            self._specs[-1],
            self._plan.execute,
            src,
            inverse,
            workspace=self.workspace,
            out=out,
            scale=self._scale(inverse),
            stream=stream,
        )

    def _scale(self, inverse: bool) -> float:
        return scale_factor(self.total_elements, self.norm, inverse)

    def _check_energy(
        self, e_in: float | None, out: np.ndarray, inverse: bool, what: str
    ) -> None:
        """Raise :class:`CorruptionError` when ``verify`` is on and Parseval fails.

        ``e_in`` comes from :meth:`_input_energy`; ``out`` carries the
        fused norm scale ``s``, so its energy is ``N * s**2 * e_in``.
        """
        if e_in is not None and not energy_preserved(
            e_in, _energy(out), self.total_elements * self._scale(inverse) ** 2
        ):
            raise CorruptionError(
                f"{what} violated the energy invariant "
                "(likely an ECC upset of a device buffer)"
            )

    def _host_fallback(
        self,
        x: np.ndarray,
        inverse: bool,
        reason: str,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Degrade one transform to the host; a reset takes every buffer with it.

        Runs the engine's own plan the way :meth:`_launch_transform` does
        (same backend, workspace and fused norm scale), so the result is
        bit-identical to the device path's.
        """
        if self.simulator.device_lost:
            self.release()
        self._executor.host_fallback(self.shape, self._dtype, reason, self._buf)
        return self._plan.execute(
            x, inverse, workspace=self.workspace, out=out, scale=self._scale(inverse)
        )


# ----------------------------------------------------------------------
# Checkpointed out-of-core execution
# ----------------------------------------------------------------------


def run_out_of_core(
    plan: OutOfCorePlan,
    est: OutOfCoreEstimate,
    x: np.ndarray,
    executor: ResilientExecutor,
    verify: bool = False,
    name: str = "ooc",
    workspace=None,
) -> np.ndarray:
    """Forward out-of-core transform, staged through the simulator.

    Functionally identical to :meth:`OutOfCorePlan.execute` but every
    slab and plane group genuinely crosses the simulated PCIe link
    through device buffers, with the estimator's per-phase times charged
    as individual kernel launches.  The host-side ``work`` array holds
    completed stage-1 slabs and stage-2 plane groups — the checkpoints: a
    :class:`~repro.gpu.faults.DeviceLostError` mid-run triggers a device
    reset and resumption from the first incomplete unit rather than a
    restart.  After ``policy.max_device_resets`` losses the error
    propagates so the caller can degrade to the host plan.

    Returns the un-normalized forward transform (callers apply norms, and
    handle the inverse by conjugation as usual).

    The slab staging and d2h buffers are allocated once and recycled
    across every slab, group and checkpoint resume; ``workspace`` (a
    :class:`~repro.core.workspace.Workspace`) additionally routes the
    per-slab five-step transforms through the pooled zero-allocation
    path.  Results are identical with or without it.
    """
    sim = executor.sim
    policy = executor.policy
    report = executor.report
    x = as_complex_array(x, plan.precision)
    if x.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {x.shape}")
    nz, ny, nx = plan.shape
    s = plan.n_slabs
    sub_nz = nz // s
    dtype = x.dtype
    link = sim.pcie
    slab_plan = plan.slab_plan()
    n_slab = sub_nz * ny * nx

    fft_t = est.stage1_fft / s
    tw_t = est.stage1_twiddle / s
    s2_t = est.stage2_fft / sub_nz

    work = np.empty_like(x)
    result = np.empty_like(x)
    s1_done = [False] * s
    s2_done = [False] * sub_nz
    resets = 0

    # Staging buffers, allocated once and recycled across every slab and
    # plane group (and across checkpoint resumes).
    slab_buf = np.empty(plan.slab_shape, dtype)
    slab_tmp = np.empty(plan.slab_shape, dtype)
    group_tmp = np.empty((s, ny, nx), dtype)

    def run_slab_fft(dev: DeviceArray) -> None:
        # In-place on the device buffer: the five-step plan reads its
        # input before the final step writes, so out may alias x.
        if workspace is not None and isinstance(slab_plan, FiveStepPlan):
            slab_plan.execute(dev.data, workspace=workspace, out=dev.data)
        else:
            dev.data[...] = slab_plan.execute(dev.data)

    def plane_setup(label: str, n_planes: int, kind: str) -> None:
        # The paper stages each XY plane as its own transfer; the slab
        # copy above charged one setup, so account the remaining ones.
        if n_planes > 1:
            sim.charge(label, (n_planes - 1) * link.setup_s, kind)

    def stage1() -> None:
        dev = sim.allocate(plan.slab_shape, dtype, f"{name}-slab")
        try:
            for i in range(s):
                if s1_done[i]:
                    continue
                with sim.annotate(stage="s1", slab=i):
                    np.copyto(slab_buf, x[i::s])
                    slab = slab_buf
                    e_in = _energy(slab)
                    last = policy.max_attempts - 1
                    for attempt in range(policy.max_attempts):
                        executor.h2d(slab, dev, f"{name}-s1-h2d[{i}]")
                        plane_setup(f"{name}-s1-h2d[{i}]-planes", sub_nz, "h2d")
                        executor.launch_timed(
                            f"{name}-s1-fft[{i}]",
                            fft_t,
                            lambda: run_slab_fft(dev),
                        )
                        executor.launch_timed(
                            f"{name}-s1-twiddle[{i}]",
                            tw_t,
                            lambda: dev.data.__imul__(plan.stage1_twiddles(i)),
                        )
                        if not verify or energy_preserved(
                            e_in, _energy(dev.data), float(n_slab)
                        ):
                            break
                        if attempt == last:
                            raise CorruptionError(
                                f"stage-1 slab {i}: energy invariant violated "
                                f"through {policy.max_attempts} attempts"
                            )
                        executor.backoff(attempt, "ecc")
                    executor.d2h(dev, slab_tmp, f"{name}-s1-d2h[{i}]")
                    plane_setup(f"{name}-s1-d2h[{i}]-planes", sub_nz, "d2h")
                    work[i::s] = slab_tmp
                    s1_done[i] = True
        finally:
            if sim.is_allocated(dev):
                sim.free(dev)

    def stage2() -> None:
        dev = sim.allocate((s, ny, nx), dtype, f"{name}-group")
        try:
            for k in range(sub_nz):
                if s2_done[k]:
                    continue
                with sim.annotate(stage="s2", group=k):
                    group = np.ascontiguousarray(work[k * s : (k + 1) * s])
                    e_in = _energy(group)
                    last = policy.max_attempts - 1
                    for attempt in range(policy.max_attempts):
                        executor.h2d(group, dev, f"{name}-s2-h2d[{k}]")
                        plane_setup(f"{name}-s2-h2d[{k}]-planes", s, "h2d")
                        executor.launch_timed(
                            f"{name}-s2-fft[{k}]",
                            s2_t,
                            lambda: dev.data.__setitem__(
                                ..., plan.stage2_compute(dev.data)
                            ),
                        )
                        if not verify or energy_preserved(
                            e_in, _energy(dev.data), float(s)
                        ):
                            break
                        if attempt == last:
                            raise CorruptionError(
                                f"stage-2 group {k}: energy invariant violated "
                                f"through {policy.max_attempts} attempts"
                            )
                        executor.backoff(attempt, "ecc")
                    executor.d2h(dev, group_tmp, f"{name}-s2-d2h[{k}]")
                    plane_setup(f"{name}-s2-d2h[{k}]-planes", s, "d2h")
                    result[k::sub_nz] = group_tmp
                    s2_done[k] = True
        finally:
            if sim.is_allocated(dev):
                sim.free(dev)

    while True:
        try:
            stage1()
            stage2()
            return result
        except DeviceLostError:
            resets += 1
            if resets > policy.max_device_resets:
                raise
            executor.reset_device()
            report.checkpoint_restores += 1
