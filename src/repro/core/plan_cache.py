"""Process-wide plan cache for the five-step transform.

Real FFT workloads (a docking search scoring thousands of rotations, a
spectral solver stepping a fixed grid) build the *same* plan over and
over: identical shape, precision and target device.  Plan construction is
not free — axis splitting, the five intermediate layout views, the
four-step twiddle tables and the per-device kernel specs — so the cache
pays it once per distinct ``(shape, precision, device)`` and hands every
subsequent :class:`~repro.core.api.GpuFFT3D` /
:class:`~repro.core.batch.BatchedGpuFFT3D` the shared, immutable plan.

:class:`~repro.core.five_step.FiveStepPlan` is stateless after
construction (execution reads the memoized twiddle tables and writes only
caller-owned arrays), so sharing one instance across plans — and across
threads, under the cache lock — is safe.  Kernel specs depend on the
device, hence the device name in the key; the functional plan itself is
device-independent, but keying it the same way keeps one cache with one
invalidation story.

The cache is *bounded*: a long-lived process (the :mod:`repro.serve`
front door in particular) sees an open-ended stream of distinct shapes,
so plans are kept in LRU order and the least-recently-requested entry is
evicted once ``max_entries`` is exceeded.  Evictions are counted in
:attr:`PlanCache.stats` and fed to observers (so a
:class:`repro.obs.Profiler` surfaces them as ``plan_cache.evictions``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.five_step import FiveStepPlan, resolve_plan_backend
from repro.gpu.kernel import KernelSpec
from repro.gpu.specs import DeviceSpec

__all__ = ["DEFAULT_MAX_ENTRIES", "PlanCacheStats", "PlanCache", "PLAN_CACHE"]

#: Default LRU bound: generous for any realistic shape working set while
#: keeping a shape-churning server from growing the cache without limit.
DEFAULT_MAX_ENTRIES = 128


@dataclass(frozen=True)
class PlanCacheStats:
    """Hit/miss/eviction counters snapshot (misses == plans built).

    ``compiles`` counts backend kernel compilations
    (:meth:`PlanCache.record_compile`); ``by_backend`` labels the
    hit/miss traffic per resolved backend as sorted
    ``(backend, hits, misses)`` triples, so a mixed numpy/jit workload's
    cache behaviour stays attributable.
    """

    hits: int
    misses: int
    evictions: int = 0
    compiles: int = 0
    by_backend: tuple = field(default=(), compare=False)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def backend(self, name: str) -> tuple[int, int]:
        """``(hits, misses)`` attributed to one resolved backend."""
        for backend, hits, misses in self.by_backend:
            if backend == name:
                return (hits, misses)
        return (0, 0)


def _normalize(shape) -> tuple[int, int, int]:
    if isinstance(shape, int):
        shape = (shape, shape, shape)
    if len(shape) != 3:
        raise ValueError(f"shape must be 3-D, got {shape!r}")
    return tuple(int(n) for n in shape)


class PlanCache:
    """Thread-safe LRU-bounded store for plans and their kernel specs.

    ``max_entries`` bounds the number of distinct ``(shape, precision,
    device)`` plans held at once (``None`` disables eviction); requests
    refresh recency, inserts past the bound evict the stalest entry and
    its kernel specs together.
    """

    def __init__(self, max_entries: int | None = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        self._plans: OrderedDict[tuple, FiveStepPlan] = OrderedDict()
        self._specs: dict[tuple, list[KernelSpec]] = {}
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compiles = 0
        self._by_backend: dict[str, list[int]] = {}
        self._observers: list[Callable[..., None]] = []
        self._scope = threading.local()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def current_scope(self) -> str | None:
        """The attribution label in force on this thread (``None`` = global).

        Observers run synchronously on the requesting thread, so they may
        read this to attribute a hit/miss to the cluster node (or other
        scope) whose work triggered it — the fix for the single-process
        assumption in the stats folding: one process-wide cache serving
        many simulated nodes must not fold every node's traffic into one
        unlabeled counter.
        """
        return getattr(self._scope, "label", None)

    @contextmanager
    def scoped(self, label: str) -> Iterator[None]:
        """Attribute this thread's cache traffic to ``label`` while open.

        Scopes nest (the inner label wins) and are strictly thread-local,
        so concurrent nodes driving the shared cache cannot contaminate
        each other's attribution.
        """
        prev = getattr(self._scope, "label", None)
        self._scope.label = label
        try:
            yield
        finally:
            self._scope.label = prev

    def add_observer(self, fn: Callable[..., None]) -> Callable[..., None]:
        """Subscribe ``fn`` to cache events, called as ``fn(outcome, **info)``.

        ``outcome`` is ``"hits"``/``"misses"`` once per :meth:`five_step`
        request (the same accounting the :attr:`stats` counters keep),
        ``"evictions"`` and ``"compiles"``.  Every event carries
        ``backend=`` (the resolved plan backend); ``"compiles"`` also
        carries ``seconds=``.  Calls are made outside the cache lock so
        the observer may consult the cache re-entrantly.  Returns ``fn``
        as the handle for :meth:`remove_observer`.  This is how a
        :class:`repro.obs.Profiler` keeps live hit/miss counters.
        """
        with self._lock:
            self._observers.append(fn)
        return fn

    def remove_observer(self, fn: Callable[..., None]) -> None:
        """Unsubscribe a :meth:`add_observer` handle (idempotent)."""
        with self._lock:
            if fn in self._observers:
                self._observers.remove(fn)

    def _notify(self, outcome: str, **info) -> None:
        with self._lock:
            observers = list(self._observers)
        for fn in observers:
            fn(outcome, **info)

    def five_step(
        self, shape, precision: str, device: DeviceSpec, backend: str = "numpy"
    ) -> FiveStepPlan:
        """The shared plan for ``(shape, precision, device, backend)``.

        A miss builds the plan and warms every twiddle table its execute
        reads (:meth:`~repro.core.five_step.FiveStepPlan.warm_tables`) in
        the process-wide :data:`~repro.fft.twiddle.DEFAULT_CACHE`; a hit
        recomputes neither.  ``backend`` is resolved *before* keying
        (:func:`~repro.core.five_step.resolve_plan_backend`), so
        ``"auto"`` shares the entry of its concrete resolution while a
        cjit-keyed plan can never collide with a numpy-keyed one.
        """
        resolved = resolve_plan_backend(shape, backend)
        key = (_normalize(shape), precision, device.name, resolved)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                self._bump_backend(resolved, 0)
                self._plans.move_to_end(key)
            else:
                self._misses += 1
                self._bump_backend(resolved, 1)
        if plan is not None:
            self._notify("hits", backend=resolved)
            return plan
        self._notify("misses", backend=resolved)
        # Build outside the lock (construction touches the twiddle cache,
        # which has its own lock); last writer wins on a racing miss.
        plan = FiveStepPlan(key[0], precision=precision, backend=resolved)
        plan.warm_tables()
        with self._lock:
            plan = self._plans.setdefault(key, plan)
            self._plans.move_to_end(key)
            evicted = self._evict_over_bound()
        for backend_name in evicted:
            self._notify("evictions", backend=backend_name)
        return plan

    def _bump_backend(self, backend: str, slot: int) -> None:
        """Count a hit (slot 0) or miss (slot 1) for one backend; caller
        holds the lock."""
        self._by_backend.setdefault(backend, [0, 0])[slot] += 1

    def record_compile(self, backend: str, seconds: float) -> None:
        """Count one backend kernel compilation and notify observers.

        Called by :meth:`FiveStepPlan.ensure_compiled` after a successful
        warm-up so profilers surface ``plan_cache.compiles`` alongside
        the hit/miss feed (with ``backend=``/``seconds=`` detail).
        """
        with self._lock:
            self._compiles += 1
        self._notify("compiles", backend=backend, seconds=seconds)

    def _evict_over_bound(self) -> list[str]:
        """Drop LRU entries past ``max_entries``; caller holds the lock.

        Returns the backend of each evicted entry so the caller can
        notify observers (outside the lock) with attribution.
        """
        evicted: list[str] = []
        while self._max_entries is not None and len(self._plans) > self._max_entries:
            stale_key, _ = self._plans.popitem(last=False)
            self._specs.pop(stale_key, None)
            self._evictions += 1
            evicted.append(stale_key[3])
        return evicted

    def step_specs(
        self, shape, precision: str, device: DeviceSpec, backend: str = "numpy"
    ) -> list[KernelSpec]:
        """The plan's five kernel specs, built once per device.

        The specs model the simulated card and are backend-independent,
        but they are keyed alongside their plan so eviction retires both
        together.
        """
        resolved = resolve_plan_backend(shape, backend)
        key = (_normalize(shape), precision, device.name, resolved)
        with self._lock:
            specs = self._specs.get(key)
            if specs is not None:
                return specs
        specs = self.five_step(shape, precision, device, backend).step_specs(
            device
        )
        with self._lock:
            return self._specs.setdefault(key, specs)

    @property
    def stats(self) -> PlanCacheStats:
        with self._lock:
            by_backend = tuple(
                sorted(
                    (name, counts[0], counts[1])
                    for name, counts in self._by_backend.items()
                )
            )
            return PlanCacheStats(
                self._hits,
                self._misses,
                self._evictions,
                self._compiles,
                by_backend,
            )

    @property
    def max_entries(self) -> int | None:
        """The LRU bound currently in force (``None`` = unbounded)."""
        with self._lock:
            return self._max_entries

    def set_max_entries(self, max_entries: int | None) -> None:
        """Re-bound the cache; shrinking evicts stalest entries now."""
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        with self._lock:
            self._max_entries = max_entries
            evicted = self._evict_over_bound()
        for backend_name in evicted:
            self._notify("evictions", backend=backend_name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan and spec list (counters reset too)."""
        with self._lock:
            self._plans.clear()
            self._specs.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._compiles = 0
            self._by_backend.clear()


#: The process-wide cache every GPU plan consults.
PLAN_CACHE = PlanCache()
