"""Workspace arena: keying, reuse accounting, and zero steady-state allocation.

The tentpole property lives here: after a warm-up execution populates the
arena, repeated pooled transforms must perform **no net heap allocation**
(verified with ``tracemalloc`` and live allocator blocks) and the arena
must report a 100% hit rate.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.five_step import FiveStepPlan
from repro.core.workspace import Workspace
from repro.obs.metrics import MetricsRegistry


class TestWorkspaceArena:
    def test_acquire_miss_then_hit(self):
        ws = Workspace()
        a = ws.acquire((4, 4), np.complex64)
        assert a.shape == (4, 4) and a.dtype == np.complex64
        ws.release(a)
        b = ws.acquire((4, 4), np.complex64)
        assert b is a  # exact-key reuse, not a fresh allocation
        s = ws.stats
        assert (s.misses, s.hits, s.releases) == (1, 1, 1)

    def test_shape_and_dtype_key_exactly(self):
        ws = Workspace()
        a = ws.acquire((4, 4), np.complex64)
        ws.release(a)
        assert ws.acquire((4, 4), np.complex128) is not a
        assert ws.acquire((8, 2), np.complex64) is not a

    def test_release_resolves_views_to_their_base(self):
        ws = Workspace()
        a = ws.acquire((4, 4), np.complex64)
        ws.release(a.T[1:, :])  # any view chain maps back to the arena buffer
        assert ws.acquire((4, 4), np.complex64) is a

    def test_release_ignores_none_and_foreign_arrays(self):
        ws = Workspace()
        ws.release(None)
        ws.release(np.zeros(3))
        assert ws.stats.releases == 0
        assert ws.stats.free_buffers == 0

    def test_bytes_accounting(self):
        ws = Workspace()
        a = ws.acquire((8,), np.complex128)
        assert ws.total_bytes == a.nbytes
        ws.release(a)
        ws.acquire((8,), np.complex128)  # hit: no new bytes
        assert ws.total_bytes == a.nbytes

    def test_clear_drops_free_buffers(self):
        ws = Workspace()
        ws.release(ws.acquire((4,), np.complex64))
        ws.clear()
        assert ws.stats.free_buffers == 0
        assert ws.total_bytes == 0

    def test_metrics_are_folded_into_registry(self):
        reg = MetricsRegistry()
        ws = Workspace(name="t", metrics=reg)
        ws.release(ws.acquire((4,), np.complex64))
        ws.acquire((4,), np.complex64)
        snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["workspace.misses{workspace=t}"]["value"] == 1.0
        assert counters["workspace.hits{workspace=t}"]["value"] == 1.0


class TestZeroSteadyStateAllocation:
    """100 pooled executions after warm-up: zero net allocation growth."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_plan_execute_steady_state(self, precision):
        shape = (16, 16, 16)
        plan = FiveStepPlan(shape, precision=precision)
        ws = Workspace()
        dtype = np.complex64 if precision == "single" else np.complex128
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            dtype
        )
        out = np.empty(shape, dtype)
        for _ in range(3):  # warm the arena and any lazy caches
            plan.execute(x, workspace=ws, out=out)
        before = ws.stats

        gc.collect()
        tracemalloc.start()
        base = tracemalloc.take_snapshot()
        for _ in range(100):
            plan.execute(x, workspace=ws, out=out)
        gc.collect()
        growth = tracemalloc.take_snapshot().compare_to(base, "lineno")
        tracemalloc.stop()

        after = ws.stats
        assert after.misses == before.misses  # every acquire was a hit
        assert after.live_buffers == 0
        net = sum(d.size_diff for d in growth if d.size_diff > 0)
        # No per-execution array allocation survives 100 transforms: any
        # residue is interpreter bookkeeping, far below one (16,16,16)
        # buffer (and independent of the iteration count).
        assert net < out.nbytes

    @pytest.mark.parametrize("backend", ["numpy", "cjit"])
    def test_api_forward_into_out_steady_state(self, backend):
        # The zero-copy API path on top of the pooled plan: with out= a
        # warm forward allocates no result array and no staging buffer,
        # and never misses the workspace.
        shape = (32, 32, 32)
        n = 200
        rng = np.random.default_rng(6)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        out = np.empty(shape, np.complex64)

        def transforms(plan):
            for _ in range(n):
                plan.simulator.reset_clock()  # the timeline grows by design
                assert plan.forward(x, out=out) is out
            gc.collect()

        def blocks_kept(plan):
            blocks = sys.getallocatedblocks()
            transforms(plan)
            return sys.getallocatedblocks() - blocks

        with GpuFFT3D(shape, backend=backend) as plan:
            for _ in range(3):  # warm the arena, the plan and any lazy caches
                plan.forward(x, out=out)
            before = plan.workspace.stats
            # Live allocator blocks, not traced bytes, and the least of
            # three rounds: the interpreter's freelists fill up once and
            # then hold still, while anything a transform keeps adds at
            # least one block per call in every round.
            plan.simulator.reset_clock()  # drop the warm-up's events first
            gc.collect()
            grown = min(blocks_kept(plan) for _ in range(3))
            tracemalloc.start()
            held, _ = tracemalloc.get_traced_memory()
            plan.forward(x, out=out)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            after = plan.workspace.stats
        assert after.misses == before.misses
        assert after.hits > before.hits
        # Warm transforms keep nothing: far below one block per call.
        assert grown < n // 4, grown
        if plan._plan.backend == "cjit":
            # Not even a transient grid-sized allocation inside one
            # transform (the NumPy codelets build per-step temporaries,
            # so only cjit is held to this).
            assert peak - held < out.nbytes // 2
        np.testing.assert_allclose(out, np.fft.fftn(x), rtol=1e-4, atol=1e-3)

    def test_api_steady_state_hit_rate(self):
        shape = (16, 16, 16)
        x = (np.ones(shape) + 1j).astype(np.complex64)
        with GpuFFT3D(shape, precision="single") as plan:
            plan.forward(x)
            before = plan.workspace.stats
            for _ in range(10):
                plan.forward(x)
            after = plan.workspace.stats
        assert after.misses == before.misses
        assert after.hits > before.hits
        assert after.live_buffers == 0
        assert after.hit_rate > 0.5


class TestPoolingKnob:
    def test_engines_always_own_a_workspace(self):
        from repro.core.batch import BatchedGpuFFT3D

        with GpuFFT3D((16, 16, 16)) as plan:
            assert isinstance(plan.workspace, Workspace)
        with BatchedGpuFFT3D((16, 16, 16)) as engine:
            assert isinstance(engine.workspace, Workspace)

    def test_out_must_be_contiguous_and_matching(self):
        plan = FiveStepPlan((16, 16, 16), precision="single")
        x = np.ones((16, 16, 16), np.complex64)
        with pytest.raises(ValueError):
            plan.execute(x, out=np.empty((16, 16, 32), np.complex64)[:, :, ::2])
        with pytest.raises(ValueError):
            plan.execute(x, out=np.empty((8, 8, 8), np.complex64))


class TestAcquireContract:
    """Every acquire returns a C-contiguous, dtype-exact, shape-exact
    buffer — the invariant the flat-viewing compiled backends rely on."""

    def test_fresh_and_pooled_buffers_honor_contract(self):
        ws = Workspace()
        for _ in range(2):  # miss round, then pooled round
            bufs = [ws.acquire((8, 4, 16), np.complex64) for _ in range(3)]
            for buf in bufs:
                assert buf.flags.c_contiguous
                assert buf.dtype == np.dtype(np.complex64)
                assert buf.shape == (8, 4, 16)
            for buf in bufs:
                ws.release(buf)

    def test_tainted_pool_entry_is_discarded(self):
        """A contract-violating buffer smuggled into the free list is
        replaced by a fresh allocation, never handed out."""
        ws = Workspace()
        buf = ws.acquire((4, 4, 4), np.complex64)
        ws.release(buf)
        key = next(iter(ws._free))
        ws._free[key] = [np.empty((4, 4, 8), np.complex64)[:, :, ::2]]
        again = ws.acquire((4, 4, 4), np.complex64)
        assert again.flags.c_contiguous
        assert again.shape == (4, 4, 4)
        assert ws.stats.misses == 2  # the tainted entry did not count as a hit

    def test_dtype_is_exact_not_equivalent(self):
        ws = Workspace()
        buf = ws.acquire((4, 4, 4), "complex64")
        assert buf.dtype == np.dtype(np.complex64)
        assert buf.dtype.str == np.dtype("complex64").str
