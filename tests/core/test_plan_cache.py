"""Tests for the process-wide plan/twiddle cache."""

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.plan_cache import PLAN_CACHE, PlanCache
from repro.fft.twiddle import DEFAULT_CACHE
from repro.gpu.specs import GEFORCE_8800_GT, GEFORCE_8800_GTX


@pytest.fixture
def cache():
    return PlanCache()


class TestPlanCache:
    def test_second_request_returns_same_plan(self, cache):
        a = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        assert a is b
        assert len(cache) == 1

    def test_hit_does_not_recompute_twiddles(self, cache):
        """The acceptance criterion: a cache hit builds no new tables."""
        cache.five_step((64, 64, 64), "single", GEFORCE_8800_GTX)
        tables_after_miss = len(DEFAULT_CACHE)
        cache.five_step((64, 64, 64), "single", GEFORCE_8800_GTX)
        assert len(DEFAULT_CACHE) == tables_after_miss

    def test_miss_warms_twiddle_tables(self):
        """A fresh plan's four-step tables are resident after the miss."""
        cache = PlanCache()
        plan = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        before = len(DEFAULT_CACHE)
        # Executing through the plan must not add tables: they were
        # warmed when the cache built it.
        x = np.ones((32, 32, 32), np.complex64)
        plan.execute(x)
        assert len(DEFAULT_CACHE) == before

    def test_stats_count_hits_and_misses(self, cache):
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((64, 64, 64), "single", GEFORCE_8800_GTX)
        s = cache.stats
        assert (s.hits, s.misses, s.requests) == (1, 2, 3)

    def test_distinct_keys(self, cache):
        a = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.five_step((32, 32, 32), "double", GEFORCE_8800_GTX)
        c = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GT)
        d = cache.five_step((32, 32, 64), "single", GEFORCE_8800_GTX)
        assert len({id(a), id(b), id(c), id(d)}) == 4
        assert len(cache) == 4

    def test_int_shape_normalized_to_cube(self, cache):
        a = cache.five_step(32, "single", GEFORCE_8800_GTX)
        b = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        assert a is b

    def test_bad_shape_rejected(self, cache):
        with pytest.raises(ValueError, match="3-D"):
            cache.five_step((32, 32), "single", GEFORCE_8800_GTX)

    def test_clear(self, cache):
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0

    def test_step_specs_memoized(self, cache):
        a = cache.step_specs((32, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.step_specs((32, 32, 32), "single", GEFORCE_8800_GTX)
        assert a is b
        assert len(a) == 5


class TestLruBound:
    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(max_entries=2)
        a = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((64, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)  # refresh a
        cache.five_step((32, 64, 32), "single", GEFORCE_8800_GTX)  # evicts 64x
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The refreshed entry survived; the stale one is rebuilt on demand.
        assert cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX) is a
        misses = cache.stats.misses
        cache.five_step((64, 32, 32), "single", GEFORCE_8800_GTX)
        assert cache.stats.misses == misses + 1

    def test_unbounded_cache_never_evicts(self):
        cache = PlanCache(max_entries=None)
        for n in (32, 64, 128):
            cache.five_step((n, 32, 32), "single", GEFORCE_8800_GTX)
        assert len(cache) == 3
        assert cache.stats.evictions == 0

    def test_set_max_entries_shrinks_immediately(self):
        cache = PlanCache(max_entries=8)
        for n in (32, 64, 128):
            cache.five_step((n, 32, 32), "single", GEFORCE_8800_GTX)
        cache.set_max_entries(1)
        assert cache.max_entries == 1
        assert len(cache) == 1
        assert cache.stats.evictions == 2

    def test_step_specs_evicted_with_plan(self):
        cache = PlanCache(max_entries=1)
        a = cache.step_specs((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((64, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.step_specs((32, 32, 32), "single", GEFORCE_8800_GTX)
        assert a is not b  # rebuilt after eviction, not stale-served

    def test_clear_resets_eviction_count(self):
        cache = PlanCache(max_entries=1)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((64, 32, 32), "single", GEFORCE_8800_GTX)
        assert cache.stats.evictions == 1
        cache.clear()
        assert cache.stats.evictions == 0

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)

    def test_evictions_reach_profiler_counter(self):
        from repro.obs.profiler import Profiler

        old_bound = PLAN_CACHE.max_entries
        PLAN_CACHE.clear()
        try:
            with Profiler() as prof:
                PLAN_CACHE.set_max_entries(1)
                PLAN_CACHE.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
                PLAN_CACHE.five_step((64, 32, 32), "single", GEFORCE_8800_GTX)
                snap = prof.snapshot()["counters"]
                assert snap["plan_cache.evictions"]["value"] == 1
        finally:
            PLAN_CACHE.set_max_entries(old_bound)
            PLAN_CACHE.clear()


class TestApiIntegration:
    def test_two_plans_share_one_cached_plan(self):
        """A second GpuFFT3D for the same key is served from the cache."""
        p1 = GpuFFT3D((32, 32, 32))
        hits_before = PLAN_CACHE.stats.hits
        tables_before = len(DEFAULT_CACHE)
        p2 = GpuFFT3D((32, 32, 32))
        assert p2._plan is p1._plan
        assert PLAN_CACHE.stats.hits == hits_before + 1
        assert len(DEFAULT_CACHE) == tables_before
        p1.release()
        p2.release()

    def test_shared_plan_still_correct(self, rng):
        x = (rng.standard_normal((32, 32, 32)) + 0j).astype(np.complex64)
        ref = np.fft.fftn(x.astype(np.complex128))
        for _ in range(2):
            with GpuFFT3D((32, 32, 32)) as plan:
                out = plan.forward(x)
            err = np.abs(out - ref).max() / np.abs(ref).max()
            assert err < 1e-5


class TestBackendKeying:
    """Backend-aware keys: jit and numpy plans must never collide."""

    def test_numpy_and_jit_keys_never_collide(self, cache):
        """The satellite regression: same geometry, different backend,
        two distinct cache entries — a jit-keyed plan can never be
        handed to a numpy caller or vice versa."""
        from repro import jit

        a = cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.five_step(
            (32, 32, 32), "single", GEFORCE_8800_GTX, backend="auto"
        )
        resolved = jit.resolve_backend("auto")
        if resolved == "numpy":
            # No compiled backend on this machine: "auto" resolves to
            # numpy *before* keying, so the entries must be shared.
            assert a is b
            assert len(cache) == 1
        else:
            assert a is not b
            assert b.backend == resolved
            assert len(cache) == 2

    def test_auto_shares_entry_with_concrete_resolution(self, cache):
        from repro import jit

        resolved = jit.resolve_backend("auto")
        a = cache.five_step(
            (32, 32, 32), "single", GEFORCE_8800_GTX, backend="auto"
        )
        b = cache.five_step(
            (32, 32, 32), "single", GEFORCE_8800_GTX, backend=resolved
        )
        assert a is b
        assert len(cache) == 1

    def test_unsupported_shape_keys_as_numpy(self, cache):
        """A geometry with no emitted kernels resolves to numpy even when
        a compiled backend was requested, sharing the numpy entry."""
        a = cache.five_step((512, 512, 512), "single", GEFORCE_8800_GTX)
        b = cache.five_step(
            (512, 512, 512), "single", GEFORCE_8800_GTX, backend="auto"
        )
        assert a is b
        assert b.backend == "numpy"

    def test_stats_labeled_by_backend(self, cache):
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        s = cache.stats
        assert s.backend("numpy") == (1, 1)
        assert s.backend("cjit") == (0, 0)

    def test_step_specs_keyed_by_backend(self, cache):
        from repro import jit

        a = cache.step_specs((32, 32, 32), "single", GEFORCE_8800_GTX)
        b = cache.step_specs(
            (32, 32, 32), "single", GEFORCE_8800_GTX, backend="auto"
        )
        if jit.resolve_backend("auto") == "numpy":
            assert a is b
        else:
            assert a is not b
        assert len(a) == len(b) == 5

    def test_record_compile_counts_and_notifies(self, cache):
        events = []

        def observer(outcome, backend=None, seconds=None):
            events.append((outcome, backend, seconds))

        cache.add_observer(observer)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.record_compile("cjit", 0.25)
        assert cache.stats.compiles == 1
        assert [e[0] for e in events] == ["misses", "hits", "compiles"]
        assert ("compiles", "cjit", 0.25) in events

    def test_clear_resets_backend_counters(self, cache):
        cache.five_step((32, 32, 32), "single", GEFORCE_8800_GTX)
        cache.record_compile("cjit", 0.1)
        cache.clear()
        s = cache.stats
        assert s.compiles == 0
        assert s.by_backend == ()
