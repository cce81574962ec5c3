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
"""

from __future__ import annotations

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
]

#: Every selectable backend name (``"auto"`` resolves to one of these).
BACKENDS = ("numpy", "cjit")

_observers: list[Callable[[str, float], None]] = []
_observer_lock = threading.Lock()


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
