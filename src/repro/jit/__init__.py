"""JIT-compiled hot path: backend registry and compiled-plan factory.

The five-step transform's NumPy implementation is the *reference oracle*
— always present, always correct.  This package provides the one
compiled backend for the same kernels, selected per plan:

``"numpy"``
    The reference path (default everywhere; zero behavior change).
``"cjit"``
    The kernels emitted as C (:mod:`repro.jit.emit`), compiled at
    runtime by the system toolchain and bound via ctypes
    (:mod:`repro.jit.cc`).  Requires a C compiler on PATH; matches NumPy
    bit-for-bit on FMA hardware.
``"auto"``
    cjit when a C compiler is available, else numpy.

Resolution (:func:`resolve_backend`) never raises on a missing compiler —
an explicit ``backend="cjit"`` on a machine without one degrades to
``"numpy"`` — because serving configuration must be portable across
heterogeneous fleets.  Shape support is a separate check
(:func:`repro.jit.compiled.supports_shape`, applied by
:class:`~repro.core.five_step.FiveStepPlan`): unsupported geometries
fall back per plan, again to NumPy.

Compile events are observable: :func:`add_compile_observer` feeds the
profiler's ``plan_cache.compiles{kind=jit}`` counters, and the execution
engines charge the wall-clock warm-up as a ``*-jit.compile`` host span.

Host threads follow one rule (:func:`host_threads`): a compiled
transform gets ``max(1, cores // in_flight)`` threads, where ``in_flight``
counts the compiled transforms running in the process, itself included
(:func:`core_budget`), re-read before each of its five kernels.  A lone
large transform therefore uses every core, and the server's compute
permits (at most one per core) leave each of its busy workers an equal
share.  Grids too small to gain from a thread team run on one thread.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable

from repro.jit.compiled import CompiledFiveStep, supports_shape

__all__ = [
    "BACKENDS",
    "available_backends",
    "backend_available",
    "resolve_backend",
    "supports_shape",
    "compile_plan",
    "CompiledFiveStep",
    "add_compile_observer",
    "remove_compile_observer",
    "host_cores",
    "host_threads",
    "core_budget",
]

#: Every selectable backend name (``"auto"`` resolves to one of these).
BACKENDS = ("numpy", "cjit")

_observers: list[Callable[[str, float], None]] = []
_observer_lock = threading.Lock()

# One entry per compiled transform running right now (core_budget):
# list.append and list.pop are atomic, so counting needs no lock.
_in_flight: list[None] = []


@functools.cache
def host_cores() -> int:
    """The cores this process may run on (its CPU affinity mask, read once)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Fewest grid points a compiled transform splits across cores.  A lone
#: transform of fewer points measured slower on two threads than on one:
#: its five kernels are too short to pay for starting a thread team each
#: (DESIGN.md §18).
_MIN_THREADED_POINTS = 32**3


def host_threads(in_flight: int, points: int) -> int:
    """Threads for one of ``in_flight`` concurrent compiled transforms of
    ``points``-point grids.

    ``max(1, host_cores() // in_flight)``: ``in_flight`` transforms given
    this share hold no more threads than there are cores between them,
    unless there are more transforms than cores (each still needs its own
    one).  A grid of fewer than :data:`_MIN_THREADED_POINTS` points gets
    one thread.
    """
    if points < _MIN_THREADED_POINTS:
        return 1
    return max(1, host_cores() // max(1, in_flight))


class core_budget:
    """Count one compiled transform in flight; ``with`` yields its share.

    ``points`` is the transform's grid size.  The share is a function
    returning :func:`host_threads` for the transforms in flight when it
    is called, this one included: a transform that reads it before each
    kernel gives cores back as others start and takes them back as they
    finish, so at any moment the shares read sum to no more than the
    cores (while there are no more transforms than cores), and a kernel
    already running keeps the count it started with until it returns.
    The count is released when the ``with`` block exits, however it
    exits.  (A class with a lock-free count, not a generator with a
    lock: this runs once per transform, and those cost a few percent of
    a 16³ one.)
    """

    __slots__ = ("points",)

    def __init__(self, points: int):
        self.points = points

    def __enter__(self) -> Callable[[], int]:
        _in_flight.append(None)
        return self.share

    def __exit__(self, *exc) -> None:
        _in_flight.pop()

    def share(self) -> int:
        """This transform's threads now: :func:`host_threads` for the
        transforms in flight at this call."""
        return host_threads(len(_in_flight), self.points)


def backend_available(name: str) -> bool:
    """Availability of one concrete backend on this machine."""
    if name == "numpy":
        return True
    if name == "cjit":
        from repro.jit import cc

        return cc.available()
    raise ValueError(f"unknown backend {name!r} (expected one of {BACKENDS})")


def available_backends() -> tuple[str, ...]:
    """The concrete backends usable on this machine, preference order."""
    return tuple(b for b in ("cjit", "numpy") if backend_available(b))


def resolve_backend(name: str) -> str:
    """Map a requested backend to the concrete one that will run.

    ``"auto"`` picks the best available; an explicit ``"cjit"`` without
    a C compiler degrades to ``"numpy"`` (clean fallback is the contract
    — see the module docstring).
    """
    if name == "auto":
        return available_backends()[0]
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r} (expected 'auto' or one of {BACKENDS})"
        )
    return name if backend_available(name) else "numpy"


def add_compile_observer(fn: Callable[[str, float], None]):
    """Subscribe ``fn(backend, seconds)`` to kernel-compile events."""
    with _observer_lock:
        _observers.append(fn)
    return fn


def remove_compile_observer(fn) -> None:
    """Unsubscribe a :func:`add_compile_observer` handle (idempotent)."""
    with _observer_lock:
        if fn in _observers:
            _observers.remove(fn)


def _notify_compile(backend: str, seconds: float) -> None:
    with _observer_lock:
        observers = list(_observers)
    for fn in observers:
        fn(backend, seconds)


def compile_plan(
    backend: str,
    shape: tuple[int, int, int],
    precision: str,
    rz1: int,
    rz2: int,
    ry1: int,
    ry2: int,
    twiddles=None,
) -> tuple[CompiledFiveStep, float]:
    """Build the compiled executor for one plan geometry.

    Returns ``(compiled, wall_seconds)`` where ``wall_seconds`` is the
    time spent compiling/loading kernels *in this call* (0.0 when the
    process-wide kernel library of this precision was already warm) — the
    caller charges it as the plan's ``jit.compile`` span.  Raises
    ``ValueError`` for the numpy backend or unsupported geometry
    (resolution and shape checks belong to the caller).
    """
    if backend != "cjit":
        raise ValueError(f"backend {backend!r} has no compiled executor")
    from repro.jit import cc

    t0 = time.perf_counter()
    rdt = "float32" if precision == "single" else "float64"
    compiled = CompiledFiveStep(
        shape,
        precision,
        rz1,
        rz2,
        ry1,
        ry2,
        cc.load_library(rdt).kernels,
        twiddles=twiddles,
    )
    wall = time.perf_counter() - t0
    _notify_compile(backend, wall)
    return compiled, wall
