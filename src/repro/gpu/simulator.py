"""Device simulator façade: allocate, transfer, launch, account time.

:class:`DeviceSimulator` gives the algorithm layer a CUDA-runtime-shaped
API: device arrays live in a simulated address space (backed by host NumPy
storage), kernels execute their functional NumPy body and charge the
timing model, and PCIe transfers move data while charging the link model.
A device array may also *alias* host memory (:meth:`DeviceArray.alias`,
the simulated counterpart of mapped pinned memory): a transfer between a
host array and an alias of that same array moves no bytes but is charged
and recorded exactly like a copy.  The capacity check is real —
allocating a 512^3 complex grid on a 512 MB card raises
:class:`DeviceMemoryError`, which is precisely why the paper needs its
out-of-core algorithm (Section 3.3).

Time is accounted on a *scheduled* timeline: every event carries a start
time and a duration.  Each device operation (:meth:`h2d`, :meth:`d2h`,
:meth:`launch`, :meth:`launch_timed`) is one method with a ``stream``
argument, as in CUDA.  ``stream=None`` is the default stream — the
operation begins when everything before it has finished and everything
after it waits, so a purely default-stream workload's ``elapsed`` is the
plain sum of durations (:meth:`charge` behaves the same way).  An integer
names a numbered stream fed into three hardware engines — the H2D copy
engine, the compute engine and the D2H copy engine.  Operations on one
stream are ordered; operations on one engine serialize; everything else
overlaps, which is exactly the "asynchronous transfers" overlap the paper
points at in Section 4.4 and what the batched pipeline in
:mod:`repro.core.batch` exploits: while cube ``i`` computes, cube ``i+1``
uploads and cube ``i-1`` downloads.

An optional :class:`~repro.gpu.faults.FaultInjector` hook makes every
operation fallible: transfers can abort or corrupt, launches can be
rejected or suffer ECC upsets, allocations can fail transiently, and the
whole device can drop off the bus (after which every operation raises
:class:`~repro.gpu.faults.DeviceLostError` until :meth:`reset_device`).
Failed operations still charge the timeline — marked ``faulted`` so the
cost of unreliability is observable on the same simulated clock as the
useful work.  :meth:`fault_scope` bounds an injector to one plan's
operations so plans sharing a simulator do not leak faults onto each
other.

Observability hangs off two small surfaces.  :meth:`add_record_hook`
registers a callable that sees every :class:`TimelineEvent` the moment it
is recorded, together with the *annotations* in force — arbitrary tags
(plan id, batch entry, out-of-core stage) that the algorithm layer pushes
with the :meth:`annotate` context manager.  With no hooks registered the
cost is one truthiness check per event, which is how tracing stays off by
default; :mod:`repro.obs` builds its tracer and metrics on exactly this
hook.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.gpu.faults import (
    AllocationError,
    DeviceLostError,
    FaultInjector,
    KernelLaunchError,
    TransferError,
)
from repro.gpu.kernel import KernelSpec, LaunchResult
from repro.gpu.memsystem import MemorySystem
from repro.gpu.pcie import PcieLink, link_for
from repro.gpu.specs import DeviceSpec
from repro.gpu.timing import time_kernel

__all__ = [
    "DeviceMemoryError",
    "DeviceArray",
    "TimelineEvent",
    "RecordHook",
    "DeviceSimulator",
]


class DeviceMemoryError(MemoryError):
    """Raised when an allocation exceeds device memory capacity."""


@dataclass
class DeviceArray:
    """A device-resident array: NumPy storage + simulated base address."""

    name: str
    data: np.ndarray
    base: int  # byte address in the simulated device address space

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def alias(self, host: np.ndarray) -> "DeviceArray":
        """This allocation (same name and address) backed by ``host``'s memory.

        A transfer between ``host`` and the alias moves no bytes — the
        payload is already where it has to be — yet the simulator charges
        and records it exactly like a copy, so the timeline does not
        change.  Nothing can corrupt a payload that never moves, so only
        fault-free runs use aliases
        (:meth:`repro.core.resilient.ResilientEngine._round_trip`).
        """
        return DeviceArray(self.name, host, self.base)


@dataclass
class TimelineEvent:
    """One accounted operation on the simulated clock."""

    kind: str  # "kernel" | "h2d" | "d2h" | "backoff" | "host"
    label: str
    seconds: float
    bytes_moved: int = 0
    flops: float = 0.0
    #: True when this time was spent on an operation that failed or whose
    #: payload arrived corrupted (and therefore had to be redone).
    faulted: bool = False
    #: When the operation began on the simulated clock.
    start: float = 0.0
    #: Stream the operation was issued on; ``None`` for synchronous
    #: (default-stream) operations, which serialize against everything.
    stream: int | None = None

    @property
    def end(self) -> float:
        return self.start + self.seconds


#: Engine each event kind occupies on a numbered stream.
_ENGINES = ("h2d", "d2h", "compute")

#: Signature of a record hook: the freshly recorded event plus the
#: annotations in force when it was recorded (shared mapping — copy if
#: you need to keep it past the call).
RecordHook = Callable[["TimelineEvent", Mapping[str, object]], None]


class DeviceSimulator:
    """One simulated GPU: allocator + launcher + transfer engine + clock."""

    #: Allocation alignment, bytes (CUDA allocations are 256-aligned).
    ALIGN = 256

    #: Fraction of a transfer's payload time consumed before an injected
    #: failure aborts it (the DMA engine stops partway through).
    FAIL_FRACTION = 0.5

    #: Most kernel specs whose price :meth:`_price` keeps at once.
    MAX_PRICES = 1024

    def __init__(self, device: DeviceSpec, fault_injector: FaultInjector | None = None):
        self.device = device
        self.memsystem = MemorySystem(device)
        self.pcie: PcieLink = link_for(device.pcie)
        self.faults = fault_injector
        self._next_base = 0
        self._arrays: dict[str, DeviceArray] = {}
        self._used = 0
        self._timeline: list[TimelineEvent] = []
        self._device_lost = False
        self.device_resets = 0
        #: Completion time of the last operation on each engine/stream.
        self._engine_cursor: dict[str, float] = {e: 0.0 for e in _ENGINES}
        self._stream_cursor: dict[int, float] = {}
        #: Latest completion time of any event — the simulated wall clock.
        self._horizon = 0.0
        #: Observability: record hooks + the current annotation context.
        self._record_hooks: list[RecordHook] = []
        self._annotations: dict[str, object] = {}
        #: ``id(spec) -> (spec, seconds)`` for every spec launched so far.
        self._prices: dict[int, tuple[KernelSpec, float]] = {}

    # ------------------------------------------------------------------
    # Device health
    # ------------------------------------------------------------------

    @property
    def device_lost(self) -> bool:
        """True after a device-lost fault, until :meth:`reset_device`."""
        return self._device_lost

    def _check_alive(self) -> None:
        if self._device_lost:
            raise DeviceLostError(
                f"{self.device.name} was lost; call reset_device() to recover"
            )

    def _lose_device(self, what: str) -> DeviceLostError:
        self._device_lost = True
        return DeviceLostError(f"{self.device.name} lost during {what}")

    def reset_device(self) -> None:
        """Recover a lost device: memory contents and allocations are gone.

        The timeline is preserved — the time spent before the loss really
        elapsed — and allocation tracking restarts from an empty card.
        """
        self._arrays.clear()
        self._used = 0
        self._next_base = 0
        self._device_lost = False
        self.device_resets += 1

    # ------------------------------------------------------------------
    # Fault scoping
    # ------------------------------------------------------------------

    @contextmanager
    def fault_scope(self, injector: FaultInjector | None) -> Iterator[None]:
        """Attach ``injector`` for the duration of one plan's operations.

        Plans sharing a simulator use this so a per-plan injector never
        leaks onto sibling plans: the injector is consulted only while the
        owning plan is inside the scope, and detached on exit.  A ``None``
        injector (or the one already attached) makes the scope a no-op, so
        fault-free plans still observe simulator-level injection.  A
        *different* injector while one is attached is a conflict — the
        fault schedules would interleave unpredictably — and raises.
        """
        if injector is None or injector is self.faults:
            yield
            return
        if self.faults is not None:
            raise ValueError(
                "simulator already has a fault injector attached; plans "
                "sharing a simulator must share one injector (or scope "
                "injection to disjoint plans)"
            )
        self.faults = injector
        try:
            yield
        finally:
            self.faults = None

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.device.memory_bytes - self._used

    def allocate(self, shape, dtype, name: str | None = None) -> DeviceArray:
        """Allocate a device array; raises if it does not fit.

        Capacity is checked before the host storage is built, so a grid
        larger than the card raises :class:`DeviceMemoryError` (with its
        out-of-core hint) even when the host could not hold it either.
        """
        self._check_alive()
        nbytes = np.dtype(dtype).itemsize * math.prod(np.atleast_1d(shape).tolist())
        if nbytes > self.free_bytes:
            raise DeviceMemoryError(
                f"cannot allocate {nbytes / 2**20:.0f} MiB on "
                f"{self.device.name} ({self.free_bytes / 2**20:.0f} MiB free "
                f"of {self.device.memory_mbytes} MiB); use the out-of-core "
                "path (repro.core.out_of_core) for transforms larger than "
                "device memory"
            )
        data = np.zeros(shape, dtype=dtype)
        name = name or f"array{len(self._arrays)}"
        if name in self._arrays:
            raise ValueError(f"device array {name!r} already exists")
        if self.faults is not None:
            fault = self.faults.on_allocate(name)
            if fault == "device-lost":
                raise self._lose_device(f"allocate({name!r})")
            if fault == "alloc-fail":
                raise AllocationError(
                    f"transient allocation failure for {name!r} "
                    f"({data.nbytes} B) on {self.device.name}"
                )
        base = self._next_base
        arr = DeviceArray(name=name, data=data, base=base)
        padded = (data.nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self._next_base += padded
        self._used += padded
        self._arrays[name] = arr
        return arr

    def free(self, arr: DeviceArray) -> None:
        """Release a device array (simple non-compacting free)."""
        if arr.name not in self._arrays:
            raise KeyError(f"array {arr.name!r} is not allocated here")
        del self._arrays[arr.name]
        padded = (arr.nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self._used -= padded

    def is_allocated(self, arr: DeviceArray) -> bool:
        """True while ``arr`` is live on this device (survived any reset)."""
        return self._arrays.get(arr.name) is arr

    # ------------------------------------------------------------------
    # Observability: record hooks and annotations
    # ------------------------------------------------------------------

    def add_record_hook(self, hook: RecordHook) -> RecordHook:
        """Subscribe ``hook`` to every event recorded from now on.

        The hook is called synchronously from :meth:`_record` with the
        event and the annotations in force; it must not mutate either.
        Returns ``hook`` so callers can keep the handle for
        :meth:`remove_record_hook`.
        """
        if hook in self._record_hooks:
            raise ValueError("hook is already registered")
        self._record_hooks.append(hook)
        return hook

    def remove_record_hook(self, hook: RecordHook) -> None:
        """Unsubscribe a hook registered with :meth:`add_record_hook`."""
        self._record_hooks.remove(hook)

    @property
    def annotations(self) -> Mapping[str, object]:
        """The annotation tags currently in force (read-only view)."""
        return dict(self._annotations)

    @contextmanager
    def annotate(self, **tags: object) -> Iterator[None]:
        """Tag every event recorded inside the scope with ``tags``.

        Scopes nest: inner tags shadow outer ones for the duration of the
        inner scope and the outer mapping is restored on exit.  ``None``
        values are dropped, so call sites can pass optional tags
        unconditionally.  The tags reach record hooks (and therefore the
        :mod:`repro.obs` tracer) alongside each event; with no hooks
        attached the cost is two dict rebinds per scope.
        """
        tags = {k: v for k, v in tags.items() if v is not None}
        if not tags:
            yield
            return
        prev = self._annotations
        self._annotations = {**prev, **tags}
        try:
            yield
        finally:
            self._annotations = prev

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------

    def _record(
        self,
        kind: str,
        label: str,
        seconds: float,
        *,
        start: float,
        bytes_moved: int = 0,
        flops: float = 0.0,
        faulted: bool = False,
        stream: int | None = None,
    ) -> TimelineEvent:
        ev = TimelineEvent(
            kind, label, seconds, bytes_moved, flops, faulted, start, stream
        )
        self._timeline.append(ev)
        if ev.end > self._horizon:
            self._horizon = ev.end
        if self._record_hooks:
            for hook in self._record_hooks:
                hook(ev, self._annotations)
        return ev

    def _sync_cursors(self) -> None:
        """Drag every engine and stream cursor up to the wall clock."""
        for e in self._engine_cursor:
            self._engine_cursor[e] = self._horizon
        for s in self._stream_cursor:
            self._stream_cursor[s] = self._horizon

    def _issue(self, stream: int | None, engine: str) -> float:
        """Start time of an operation on ``engine`` issued to ``stream``.

        The default stream (``None``) starts at the wall clock; a numbered
        stream starts once its prior work and the engine are both free.
        """
        if stream is None:
            return self._horizon
        return max(self._stream_cursor.get(stream, 0.0), self._engine_cursor[engine])

    def _retire(self, stream: int | None, engine: str, end: float) -> None:
        """Advance the cursors past an operation that ended at ``end``.

        The default stream joins everything; a numbered stream advances
        only itself and the engine it occupied.
        """
        if stream is None:
            self._sync_cursors()
        else:
            self._stream_cursor[stream] = end
            self._engine_cursor[engine] = end

    def record_event(self, stream: int = 0) -> float:
        """Timestamp after all work issued on ``stream`` so far (cudaEventRecord)."""
        return self._stream_cursor.get(stream, 0.0)

    def wait_event(self, stream: int, timestamp: float) -> None:
        """Make ``stream`` wait until ``timestamp`` (cudaStreamWaitEvent)."""
        if timestamp > self._stream_cursor.get(stream, 0.0):
            self._stream_cursor[stream] = timestamp

    def synchronize(self) -> float:
        """Join every stream and engine; returns the simulated wall clock."""
        self._sync_cursors()
        return self._horizon

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def _transfer_fault(
        self, label: str, n_bytes: int, direction: str, start: float, stream: int | None
    ) -> str | None:
        if self.faults is None:
            return None
        fault = self.faults.on_transfer(label, n_bytes)
        if fault in ("device-lost", "transfer-fail"):
            t = self.pcie.partial_transfer_time(n_bytes, direction, self.FAIL_FRACTION)
            self._record(
                direction, label, t, start=start, bytes_moved=n_bytes,
                faulted=True, stream=stream,
            )
            self._retire(stream, direction, start + t)
            if fault == "device-lost":
                raise self._lose_device(f"{direction} {label!r}")
            raise TransferError(
                f"{direction} transfer {label!r} ({n_bytes} B) aborted"
            )
        return fault

    def _copy(
        self, direction: str, host: np.ndarray, dev: DeviceArray, label: str,
        stream: int | None,
    ) -> float:
        """Move one payload across the link in ``direction``; returns seconds."""
        start = self._issue(stream, direction)
        self._check_alive()
        if direction == "h2d":
            src, dst, names = host, dev.data, ("host", "device")
        else:
            src, dst, names = dev.data, host, ("device", "host")
        if src.nbytes != dst.nbytes:
            raise ValueError(
                f"size mismatch: {names[0]} {src.nbytes} B vs {names[1]} {dst.nbytes} B"
            )
        fault = self._transfer_fault(label, src.nbytes, direction, start, stream)
        if src is not dst:  # an alias already holds the payload
            np.copyto(dst, src.reshape(dst.shape).astype(dst.dtype, copy=False))
        corrupted = fault == "transfer-corrupt"
        if corrupted:
            assert self.faults is not None
            self.faults.corrupt(dst)
        t = self.pcie.transfer_time(src.nbytes, direction)
        self._record(
            direction, label, t, start=start, bytes_moved=src.nbytes,
            faulted=corrupted, stream=stream,
        )
        self._retire(stream, direction, start + t)
        return t

    def h2d(
        self, host: np.ndarray, dev: DeviceArray, label: str = "h2d",
        *, stream: int | None = None,
    ) -> float:
        """Copy host -> device; returns simulated seconds.

        On the default stream (``None``) the copy starts when everything
        before it has finished; on a numbered stream it starts once that
        stream's prior work and the H2D copy engine are both free, and
        overlaps compute and D2H traffic on other streams.
        """
        return self._copy("h2d", host, dev, label, stream)

    def d2h(
        self, dev: DeviceArray, host: np.ndarray, label: str = "d2h",
        *, stream: int | None = None,
    ) -> float:
        """Copy device -> host; returns simulated seconds.

        ``stream`` places the copy as in :meth:`h2d`, on the D2H engine.
        """
        return self._copy("d2h", host, dev, label, stream)

    # ------------------------------------------------------------------
    # Kernel launches
    # ------------------------------------------------------------------

    def _launch_fault(self, label: str, start: float, stream: int | None) -> str | None:
        if self.faults is None:
            return None
        fault = self.faults.on_launch(label)
        if fault in ("device-lost", "launch-fail"):
            t = self.device.launch_overhead_s
            self._record(
                "kernel", label, t, start=start, faulted=True, stream=stream
            )
            self._retire(stream, "compute", start + t)
            if fault == "device-lost":
                raise self._lose_device(f"launch {label!r}")
            raise KernelLaunchError(f"launch of {label!r} rejected")
        return fault

    def _ecc_upset(self) -> None:
        """Flip one element of a random live device array (silent)."""
        assert self.faults is not None
        if self._arrays:
            victim = self.faults.choose(sorted(self._arrays))
            self.faults.corrupt(self._arrays[victim].data)

    def _price(self, spec: KernelSpec) -> float:
        """``spec``'s seconds on this device: :func:`time_kernel` once, a
        replay after.

        :func:`time_kernel` is a pure function of (device, spec), so the
        replay is exact.  Keyed by identity (an ``id`` lookup is ~10x
        cheaper than hashing the nested spec); the entry holds the spec,
        so its id is not reused while it lives.  Past :attr:`MAX_PRICES`
        the oldest entry goes.
        """
        entry = self._prices.get(id(spec))
        if entry is not None:
            return entry[1]
        seconds = time_kernel(self.device, spec, self.memsystem).seconds
        if len(self._prices) >= self.MAX_PRICES:
            del self._prices[next(iter(self._prices))]
        self._prices[id(spec)] = (spec, seconds)
        return seconds

    def _kernel(
        self,
        label: str,
        spec: KernelSpec | None,
        seconds: float,
        body: Callable[..., None] | None,
        args,
        kwargs,
        stream: int | None,
    ) -> float:
        """Run one kernel on the compute engine; returns its seconds.

        A ``spec`` is priced by :meth:`_price` (after the fault check)
        and charges its bytes and flops; without one the charge is the
        given ``seconds``.
        """
        start = self._issue(stream, "compute")
        self._check_alive()
        fault = self._launch_fault(label, start, stream)
        if spec is not None:
            seconds = self._price(spec)
        if body is not None:
            body(*args, **kwargs)
        if fault == "ecc-bitflip":
            self._ecc_upset()
        self._record(
            "kernel", label, seconds, start=start,
            bytes_moved=spec.total_bytes if spec is not None else 0,
            flops=spec.total_flops if spec is not None else 0.0,
            stream=stream,
        )
        self._retire(stream, "compute", start + seconds)
        return seconds

    def launch(
        self,
        spec: KernelSpec,
        body: Callable[..., None] | None = None,
        *args,
        stream: int | None = None,
        **kwargs,
    ) -> float:
        """Run a kernel: execute its functional body, charge its timing.

        ``body`` receives ``*args``/``**kwargs`` (typically DeviceArrays'
        ``.data``) and mutates them in place, exactly like a CUDA kernel.
        ``stream`` schedules it as in :meth:`h2d`.  Returns its seconds.
        """
        return self._kernel(spec.name, spec, 0.0, body, args, kwargs, stream)

    def launch_timed(
        self,
        label: str,
        seconds: float,
        body: Callable[..., None] | None = None,
        *args,
        stream: int | None = None,
        **kwargs,
    ) -> float:
        """Launch with externally-computed timing (estimator results).

        Same fault surface as :meth:`launch` — rejected launches and ECC
        upsets apply — but the charge is the precomputed ``seconds``
        rather than a :func:`time_kernel` evaluation.  Used by the
        out-of-core pipeline, whose per-phase times come from the
        Table 12 estimator.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self._kernel(label, None, seconds, body, args, kwargs, stream)

    def charge(self, label: str, seconds: float, kind: str = "kernel") -> None:
        """Record externally-computed time (e.g. an estimator result)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._record(kind, label, seconds, start=self._horizon)
        self._sync_cursors()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock seconds: when the last scheduled event ends.

        For purely synchronous workloads every event starts where the
        previous one ended, so this equals the plain sum of durations; with
        stream-pipelined work it is the makespan of the overlapped
        schedule.
        """
        return self._horizon

    @property
    def kernel_seconds(self) -> float:
        return sum(e.seconds for e in self._timeline if e.kind == "kernel")

    @property
    def transfer_seconds(self) -> float:
        return sum(e.seconds for e in self._timeline if e.kind in ("h2d", "d2h"))

    @property
    def fault_seconds(self) -> float:
        """Time spent on operations that failed or delivered corrupt data."""
        return sum(e.seconds for e in self._timeline if e.faulted)

    @property
    def backoff_seconds(self) -> float:
        """Time spent waiting in retry backoff (charged by the resilient layer)."""
        return sum(e.seconds for e in self._timeline if e.kind == "backoff")

    def engine_busy_seconds(self) -> dict[str, float]:
        """Busy time per hardware engine (h2d / compute / d2h).

        With perfect pipelining ``elapsed`` approaches the largest of
        these; fully serialized it is their sum (plus host/backoff time).
        """
        busy = {"h2d": 0.0, "compute": 0.0, "d2h": 0.0}
        for e in self._timeline:
            if e.kind in ("h2d", "d2h"):
                busy[e.kind] += e.seconds
            elif e.kind == "kernel":
                busy["compute"] += e.seconds
        return busy

    def events(self) -> list[TimelineEvent]:
        """The timeline as a list copy (kernels, transfers, backoff, host)."""
        return list(self._timeline)

    def launches(self) -> list[LaunchResult]:
        """Timeline as LaunchResult records (successful kernels only)."""
        return [
            LaunchResult(
                kernel=e.label,
                seconds=e.seconds,
                bytes_moved=e.bytes_moved,
                flops=e.flops,
                bound="memory",
            )
            for e in self._timeline
            if e.kind == "kernel" and not e.faulted
        ]

    def reset_clock(self) -> None:
        """Clear the timeline and rewind all cursors (allocations stay)."""
        self._timeline.clear()
        self._horizon = 0.0
        self._engine_cursor = {e: 0.0 for e in _ENGINES}
        self._stream_cursor.clear()
