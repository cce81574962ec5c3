"""Backend registry: resolution, clean fallback, and compile observability.

The contract under test (DESIGN.md §18): requesting a compiled backend
can never break a caller — unavailable backends degrade to NumPy,
unsupported geometries degrade per plan, and a kernel-compile failure
mid-flight degrades the plan without surfacing an error.  The JIT is a
pure optimization; these tests pin the "pure" half.
"""

import numpy as np
import pytest

from repro import jit
from repro.core.api import GpuFFT3D
from repro.core.five_step import FiveStepPlan, resolve_plan_backend
from repro.jit import cc


class TestResolution:
    def test_numpy_always_available(self):
        assert jit.backend_available("numpy")
        assert "numpy" in jit.available_backends()

    def test_auto_resolves_to_an_available_backend(self):
        resolved = jit.resolve_backend("auto")
        assert resolved in jit.BACKENDS
        assert jit.backend_available(resolved)

    def test_unknown_backend_rejected(self):
        for name in ("cuda", "numba"):
            with pytest.raises(ValueError, match="unknown backend"):
                jit.resolve_backend(name)
            with pytest.raises(ValueError, match="unknown backend"):
                jit.backend_available(name)

    def test_explicit_unavailable_backend_degrades_to_numpy(self, monkeypatch):
        monkeypatch.setattr(cc, "available", lambda: False)
        assert jit.resolve_backend("cjit") == "numpy"
        assert jit.resolve_backend("auto") == "numpy"
        assert jit.available_backends() == ("numpy",)

    def test_plan_resolution_respects_shape_support(self):
        # 512-point axes have no emitted kernels: even "auto" must land
        # on numpy for the out-of-core-adjacent geometry.
        assert resolve_plan_backend((512, 512, 512), "auto") == "numpy"
        assert resolve_plan_backend((32, 32, 32), "numpy") == "numpy"


class TestCleanFallback:
    def test_no_compiler_plan_falls_back_bit_identical(self, monkeypatch):
        """The fallback drill: cjit requested on a machine without a C
        compiler must run the numpy path and produce its exact output."""
        monkeypatch.setattr(cc, "available", lambda: False)
        rng = np.random.default_rng(11)
        x = (
            rng.standard_normal((16, 16, 16))
            + 1j * rng.standard_normal((16, 16, 16))
        ).astype(np.complex64)
        with GpuFFT3D((16, 16, 16), backend="cjit", name="fb-jit") as plan:
            assert plan._plan.backend == "numpy"
            out = plan.forward(x)
        with GpuFFT3D((16, 16, 16), name="fb-ref") as plan:
            ref = plan.forward(x)
        assert np.array_equal(out, ref)

    def test_broken_import_degrades_at_compile_time(self, monkeypatch):
        """Availability said yes but the compile blew up: the plan must
        degrade to numpy at ensure_compiled, not raise."""
        plan = FiveStepPlan((16, 16, 16), precision="single", backend="numpy")
        # Force the compiled backend past resolution, then make it explode.
        plan.backend = "cjit"

        def boom(*a, **k):
            raise RuntimeError("cjit compile failed mid-flight")

        monkeypatch.setattr(jit, "compile_plan", boom)
        wall = plan.ensure_compiled()
        assert wall == 0.0
        assert plan.backend == "numpy"
        x = np.ones((16, 16, 16), np.complex64)
        out = plan.execute(x)
        assert out.shape == x.shape

    def test_requested_vs_resolved_recorded(self):
        plan = FiveStepPlan((512, 512, 512), precision="single", backend="auto")
        assert plan.backend_requested == "auto"
        assert plan.backend == "numpy"


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
class TestCjitLibrary:
    def test_library_is_a_process_singleton(self):
        """One library per precision, shared by every later caller."""
        for rdt in ("float32", "float64"):
            assert cc.load_library(rdt) is cc.load_library(np.dtype(rdt))
        assert cc.load_library("float32") is not cc.load_library("float64")

    def test_kernels_cover_every_radix_and_size(self):
        from repro.jit import emit

        for rdt in ("float32", "float64"):
            lib = cc.load_library(rdt)
            assert set(lib.kernels["multirow_a"]) == set(emit.CODELET_RADICES)
            assert set(lib.kernels["multirow_b"]) == set(emit.CODELET_RADICES)
            assert set(lib.kernels["step5"]) == set(emit.STEP5_SIZES)

    def test_single_precision_plan_never_builds_double(self, monkeypatch):
        """A fresh process state: a single-precision plan compiles (or
        loads from the disk cache) only the float unit."""
        monkeypatch.setattr(cc, "_libraries", {})
        monkeypatch.setattr(cc, "_compile_seconds", 0.0)
        real_build = cc._build
        tags = []

        def spy(source, tag):
            tags.append(tag)
            return real_build(source, tag)

        monkeypatch.setattr(cc, "_build", spy)
        jit.compile_plan("cjit", (16, 16, 16), "single", 4, 4, 4, 4)
        jit.compile_plan("cjit", (16, 16, 32), "single", 4, 4, 4, 4)
        assert tags == ["kernels-float"]
        assert set(cc._libraries) == {"float"}
        first = cc.last_compile_seconds()
        assert first > 0.0
        jit.compile_plan("cjit", (16, 16, 16), "double", 4, 4, 4, 4)
        assert tags == ["kernels-float", "kernels-double"]
        # The total over every precision built in this process.
        assert cc.last_compile_seconds() > first

    def test_cmul_modes_are_probed(self):
        modes = cc.cmul_modes()
        assert set(modes) == {"float", "double"}
        assert all(m in ("naive", "fma") for m in modes.values())

    def test_rejected_tuning_flags_are_retried_without(
        self, monkeypatch, tmp_path
    ):
        """A toolchain that rejects the host tuning still builds, and
        the retry keeps every required flag (bit identity needs
        ``-ffp-contract=off``)."""
        import subprocess

        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        real_run = subprocess.run
        calls = []

        def flaky(cmd, **kwargs):
            calls.append(list(cmd))
            if len(calls) == 1:
                return subprocess.CompletedProcess(
                    cmd, 1, "", "error: unrecognized command-line option"
                )
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cc.subprocess, "run", flaky)
        lib = cc._build("int retry_probe(void) { return 7; }\n", "retry")
        assert lib.retry_probe() == 7
        assert len(calls) == 2
        first, retry = calls
        assert all(f in first for f in cc.REQUIRED_FLAGS + cc.TUNING_FLAGS)
        assert retry == [f for f in first if f not in cc.TUNING_FLAGS]
        assert "-ffp-contract=off" in retry


    def test_missing_openmp_runtime_builds_serial_kernels(
        self, monkeypatch, tmp_path
    ):
        """A toolchain without libgomp rejects ``-fopenmp`` at link time;
        the same source then builds without it, keeping every required
        flag (``-fopenmp-simd`` included), so only the threads go."""
        import subprocess

        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        real_run = subprocess.run
        calls = []

        def no_gomp(cmd, **kwargs):
            calls.append(list(cmd))
            if "-fopenmp" in cmd:
                return subprocess.CompletedProcess(
                    cmd, 1, "", "ld: cannot find -lgomp"
                )
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cc.subprocess, "run", no_gomp)
        lib = cc._build("int serial_probe(void) { return 5; }\n", "serial")
        assert lib.serial_probe() == 5
        built = calls[-1]
        assert "-fopenmp" not in built
        assert all(f in built for f in cc.REQUIRED_FLAGS + cc.TUNING_FLAGS)
        assert all("-fopenmp" in c for c in calls[:-1])

    def test_library_path_hashes_the_flags(self, monkeypatch, tmp_path):
        """A library built with other flags is another library: each flag
        set, and each change to a flag list or the compiler, names its
        own cached file."""
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        src, gcc = "int f(void) { return 1; }\n", ["/usr/bin/cc"]

        def paths():
            return [cc._library_path(src, "key", gcc, f) for f in cc._flag_sets()]

        base = paths()
        assert len(set(base)) == len(base)
        assert paths() == base
        clang = cc._library_path(src, "key", ["/usr/bin/clang"], cc._flag_sets()[0])
        assert clang != base[0]
        for name in ("REQUIRED_FLAGS", "THREAD_FLAGS", "TUNING_FLAGS"):
            with monkeypatch.context() as m:
                m.setattr(cc, name, getattr(cc, name) + ("-DPATCHED",))
                for flags, old, new in zip(cc._flag_sets(), base, paths()):
                    assert (new != old) == ("-DPATCHED" in flags), (name, flags)

    def test_fallback_build_is_cached_under_its_own_flags(
        self, monkeypatch, tmp_path
    ):
        """A build without OpenMP is cached under the flags that built it
        and the rejected set is remembered: a later build neither retries
        it nor loads the fallback where the full library belongs."""
        import subprocess

        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        real_run = subprocess.run
        calls = []

        def no_gomp(cmd, **kwargs):
            calls.append(list(cmd))
            if "-fopenmp" in cmd:
                return subprocess.CompletedProcess(cmd, 1, "", "cannot find -lgomp")
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cc.subprocess, "run", no_gomp)
        src = "int fallback_probe(void) { return 3; }\n"
        assert cc._build(src, "fallback").fallback_probe() == 3
        compiler = cc._find_compiler()
        paths = {
            tuple(f): cc._library_path(src, "fallback", compiler, f)
            for f in cc._flag_sets()
        }
        for flags, path in paths.items():
            threaded = "-fopenmp" in flags
            assert path.with_suffix(".failed").exists() == threaded, flags
        (built,) = [flags for flags, path in paths.items() if path.exists()]
        assert "-fopenmp" not in built
        assert calls[-1][1 : 1 + len(built)] == list(built)
        compiled = len(calls)
        assert cc._build(src, "fallback").fallback_probe() == 3
        assert len(calls) == compiled  # nothing retried, nothing rebuilt


class TestCompileObservability:
    def test_observer_add_remove_roundtrip(self):
        events = []
        handle = jit.add_compile_observer(
            lambda backend, seconds: events.append((backend, seconds))
        )
        jit._notify_compile("cjit", 0.5)
        jit.remove_compile_observer(handle)
        jit._notify_compile("cjit", 0.7)
        assert events == [("cjit", 0.5)]

    @pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
    def test_compile_plan_reports_wall_time(self):
        compiled, wall = jit.compile_plan(
            "cjit", (16, 16, 16), "single", 4, 4, 4, 4
        )
        assert wall >= 0.0
        assert compiled.shape == (16, 16, 16)

    @pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
    def test_jit_metrics_reach_profiler(self):
        from repro.core.plan_cache import PLAN_CACHE
        from repro.obs.profiler import Profiler

        PLAN_CACHE.clear()
        x = np.ones((16, 16, 16), np.complex64)
        with Profiler() as prof:
            with GpuFFT3D((16, 16, 16), backend="cjit", name="obs-jit") as plan:
                plan.forward(x)
            counters = prof.snapshot()["counters"]
        labeled = [
            k
            for k in counters
            if k.startswith("plan_cache.misses{")
            and "kind=jit" in k
            and "backend=cjit" in k
        ]
        assert labeled, sorted(counters)
        compiles = [
            k
            for k in counters
            if k.startswith("plan_cache.compiles{") and "backend=cjit" in k
        ]
        assert compiles, sorted(counters)
        PLAN_CACHE.clear()
