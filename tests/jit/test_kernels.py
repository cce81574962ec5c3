"""Kernel-level correctness of the cjit library against the NumPy plan.

The compiled kernels probe NumPy's complex multiply and match the
reference bit-for-bit on FMA hardware; on hosts without FMA the naive
multiply is ulp-bounded instead (DESIGN.md §18).
"""

import os
import threading

import numpy as np
import pytest

from repro import jit
from repro.core.five_step import FiveStepPlan, split_axis
from repro.jit import cc, emit
from repro.jit.compiled import supports_shape

#: Agreement bound for the naive-cmul kernels on non-FMA hosts (DESIGN.md §18).
ULP_BOUND = 4.0


def ulp_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest component difference in ulps at the spectrum's peak.

    FFT rounding error is *normwise*: every output bin accumulates
    contributions from every input, so the natural yardstick is the unit
    of last place at the spectrum's peak magnitude, not each bin's own
    exponent (an elementwise measure would charge benign cancellation in
    near-zero bins as huge errors).
    """
    rdt = np.float32 if a.dtype == np.complex64 else np.float64
    af, bf = a.view(rdt), b.view(rdt)
    scale = np.spacing(rdt(np.abs(bf).max() or 1.0))
    return float(np.abs(af - bf).max() / scale)


def _compiled(shape, precision):
    rz1, rz2 = split_axis(shape[0])
    ry1, ry2 = split_axis(shape[1])
    compiled, _ = jit.compile_plan("cjit", shape, precision, rz1, rz2, ry1, ry2)
    return compiled


def _run(compiled, x, inverse=False):
    out = np.empty_like(x)
    work = np.empty_like(x)
    compiled.run(x, out, work, inverse=inverse)
    return out


CASES = [
    ((4, 4, 16), "single"),
    ((4, 4, 16), "double"),
    ((8, 4, 32), "single"),
]


#: The cjit cases add cheap shapes reaching radix 8 and 16 and every
#: step-5 size, in both precisions.  The multirow inner loop is
#: vectorized: nx=16 runs it for a single vector of float lanes, the
#: longer lines and pattern-B row blocks for many vectors.
CJIT_CASES = CASES + [
    (shape, precision)
    for shape in [
        (8, 4, 32),
        (256, 4, 16),
        (64, 64, 16),
        (4, 4, 64),
        (4, 4, 128),
        (4, 4, 256),
    ]
    for precision in ("single", "double")
    if (shape, precision) not in CASES
]


#: Thread counts every kernel must give the same bits at (3 splits the
#: outer iterations in the middle of an ``i1`` row).
THREADS = sorted({1, 2, 3, jit.host_cores()})


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
@pytest.mark.parametrize("shape,precision", CJIT_CASES)
class TestCjitMatchesReferenceBitwise:
    def test_forward_and_inverse(self, shape, precision):
        """Both directions, with and without a scale, into a separate
        ``out`` and in place (the batch engine's slot), at every thread
        count: the same bits as the reference."""
        rng = np.random.default_rng(44)
        cdt = np.complex64 if precision == "single" else np.complex128
        rdt = np.float32 if precision == "single" else np.float64
        x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(cdt)
        plan = FiveStepPlan(shape, precision=precision)
        compiled = _compiled(shape, precision)
        fma = "fma" in cc.cmul_modes().values()
        work = np.empty_like(x)
        for inverse in (False, True):
            for scale in (1.0, 1.0 / x.size):
                ref = plan.execute(x, inverse=inverse, scale=scale)
                first = None
                for threads in THREADS:
                    out = np.empty_like(x)
                    compiled.run(x, out, work, inverse, scale, threads)
                    aliased = x.copy()
                    compiled.run(aliased, aliased, work, inverse, scale, threads)
                    for got in (out, aliased):
                        if first is None:
                            first = got
                            if fma:
                                assert np.array_equal(got.view(rdt), ref.view(rdt))
                            else:
                                assert ulp_distance(got, ref) <= ULP_BOUND
                        assert np.array_equal(got.view(rdt), first.view(rdt))


#: Points in the smallest grid the rule splits across cores.
BIG = jit._MIN_THREADED_POINTS


class TestCoreBudget:
    def test_rule_shares_the_cores(self, monkeypatch):
        monkeypatch.setattr(jit, "host_cores", lambda: 2)
        assert jit.host_threads(1, BIG) == 2
        assert jit.host_threads(2, BIG) == 1
        assert jit.host_threads(3, BIG) == 1  # each still needs one
        for cores in range(1, 9):
            monkeypatch.setattr(jit, "host_cores", lambda cores=cores: cores)
            for in_flight in range(1, cores + 1):
                assert in_flight * jit.host_threads(in_flight, BIG) <= cores

    def test_small_grid_stays_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(jit, "host_cores", lambda: 8)
        assert jit.host_threads(1, BIG - 1) == 1

    def test_budget_counts_transforms_in_flight(self, monkeypatch):
        monkeypatch.setattr(jit, "host_cores", lambda: 2)
        with jit.core_budget(BIG) as first:
            assert first() == 2
            with jit.core_budget(BIG) as second:
                assert first() == second() == 1  # the first gives one back
            assert first() == 2  # and takes it back
        with pytest.raises(RuntimeError):
            with jit.core_budget(BIG):
                raise RuntimeError("a failed transform releases its claim")
        with jit.core_budget(BIG) as alone:
            assert alone() == 2

    def test_overlapping_claims_never_exceed_the_cores(self, monkeypatch):
        """Claims entered and left in any order: the shares read at any
        moment sum to at most the cores."""
        cores = 4
        monkeypatch.setattr(jit, "host_cores", lambda: cores)
        budgets = [jit.core_budget(BIG) for _ in range(cores)]
        live = []
        for budget in budgets:
            budget.__enter__()
            live.append(budget)
            assert sum(b.share() for b in live) <= cores
        for i in (2, 0, 3, 1):  # not the order they were entered
            budgets[i].__exit__(None, None, None)
            live.remove(budgets[i])
            assert sum(b.share() for b in live) <= cores
        with jit.core_budget(BIG) as alone:
            assert alone() == cores

    def test_run_rereads_the_share_before_each_kernel(self, monkeypatch):
        """A transform that started alone gives a core back at its next
        kernel once a second one starts, and takes it back once that
        one ends: only the kernel running at the time overlaps."""
        monkeypatch.setattr(jit, "host_cores", lambda: 2)
        shape = (32, 32, 32)
        seen = []
        other = jit.core_budget(BIG)

        def kernel(*args):
            seen.append(args[-1])
            if len(seen) == 1:
                other.__enter__()  # a second transform starts
            elif len(seen) == 3:
                other.__exit__(None, None, None)  # and ends

        kernels = {
            "multirow_a": dict.fromkeys(emit.CODELET_RADICES, kernel),
            "multirow_b": dict.fromkeys(emit.CODELET_RADICES, kernel),
            "step5": dict.fromkeys(emit.STEP5_SIZES, kernel),
        }
        compiled = jit.CompiledFiveStep(
            shape, "single", *split_axis(32), *split_axis(32), kernels
        )
        x = np.zeros(shape, np.complex64)
        with jit.core_budget(x.size) as share:
            compiled.run(x, np.empty_like(x), np.empty_like(x), threads=share)
        assert seen == [2, 1, 1, 2, 2]

    def test_host_cores_is_the_affinity_mask(self):
        assert 1 <= jit.host_cores() <= (os.cpu_count() or 1)


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
def test_concurrent_callers_of_one_plan_get_reference_bits():
    """Two threads driving one shared compiled plan at once each get the
    bits the NumPy reference gives, whatever threads the rule hands out."""
    shape = (64, 32, 32)
    assert np.prod(shape) >= BIG  # large enough to be threaded
    rng = np.random.default_rng(48)
    xs = [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        for _ in range(2)
    ]
    plan = FiveStepPlan(shape, precision="single", backend="cjit")
    plan.ensure_compiled()
    if plan.backend != "cjit":
        pytest.skip("cjit build unavailable")
    reference = FiveStepPlan(shape, precision="single")
    refs = [reference.execute(x).view(np.float32) for x in xs]
    if "fma" not in cc.cmul_modes().values():
        # Ulp-bounded hosts: the reference is the plan run alone.
        refs = [plan.execute(x).view(np.float32) for x in xs]
    start = threading.Barrier(2)
    results: list[list[bool]] = [[], []]

    def caller(i):
        start.wait()
        for _ in range(20):
            got = plan.execute(xs[i]).view(np.float32)
            results[i].append(np.array_equal(got, refs[i]))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [[True] * 20, [True] * 20]


class TestShapeSupport:
    def test_supported_geometries(self):
        assert supports_shape(4, 4, 4, 4, 16)
        assert supports_shape(16, 16, 8, 2, 256)

    def test_unsupported_geometries(self):
        assert not supports_shape(4, 4, 4, 4, 512)  # no step-5 kernel
        assert not supports_shape(32, 4, 4, 4, 64)  # no 32-point codelet
        assert not supports_shape(4, 1, 4, 4, 64)  # degenerate split

    def test_step5_split_mirrors_plan_factoring(self):
        assert emit.step5_split(16) == (16, 1)
        for nx in (32, 64, 128, 256):
            r1, r2 = emit.step5_split(nx)
            assert r1 == 16 and r1 * r2 == nx


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
class TestStatelessness:
    def test_repeated_runs_are_identical(self):
        """One compiled instance, many calls — no state bleeds between
        them (the property that makes sharing across workers safe)."""
        shape = (4, 4, 16)
        rng = np.random.default_rng(45)
        x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex64)
        compiled = _compiled(shape, "single")
        first = _run(compiled, x)
        for _ in range(3):
            assert np.array_equal(_run(compiled, x), first)

    def test_out_may_alias_input(self):
        shape = (4, 4, 16)
        rng = np.random.default_rng(46)
        x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex64)
        compiled = _compiled(shape, "single")
        ref = _run(compiled, x)
        buf = x.copy()
        work = np.empty_like(buf)
        compiled.run(buf, buf, work)  # in place, as the batched engine does
        assert np.array_equal(buf, ref)


def _recording_compiled(shape, calls):
    """A CompiledFiveStep for ``shape`` whose kernels only record calls."""
    kernel = lambda *args: calls.append(args)  # noqa: E731
    kernels = {
        "multirow_a": dict.fromkeys(emit.CODELET_RADICES, kernel),
        "multirow_b": dict.fromkeys(emit.CODELET_RADICES, kernel),
        "step5": dict.fromkeys(emit.STEP5_SIZES, kernel),
    }
    return jit.CompiledFiveStep(
        shape, "single", *split_axis(shape[0]), *split_axis(shape[1]), kernels
    )


def _wrong(kind: str, shape) -> np.ndarray:
    """An array ``run`` must refuse: wrong dtype, strided view or size."""
    if kind == "dtype":
        return np.zeros(shape, np.complex128)
    if kind == "strided":
        return np.zeros((shape[0], shape[1], 2 * shape[2]), np.complex64)[..., ::2]
    return np.zeros((shape[0], shape[1], shape[2] // 2), np.complex64)


class TestRunChecksItsArguments:
    """The kernels take bare addresses, so ``run`` itself refuses every
    array an ``ndpointer`` signature refused (and a wrong size), before
    any kernel runs."""

    SHAPE = (4, 4, 16)

    @pytest.mark.parametrize("kind", ["dtype", "strided", "size"])
    @pytest.mark.parametrize("arg", ["x", "out", "work"])
    def test_bad_array_raises_before_any_kernel(self, arg, kind):
        calls = []
        compiled = _recording_compiled(self.SHAPE, calls)
        arrays = {name: np.zeros(self.SHAPE, np.complex64) for name in ("x", "out", "work")}
        arrays[arg] = _wrong(kind, self.SHAPE)
        with pytest.raises(ValueError, match=arg):
            compiled.run(arrays["x"], arrays["out"], arrays["work"])
        assert calls == []

    @pytest.mark.parametrize("arg", ["out", "work"])
    def test_read_only_destination_raises(self, arg):
        calls = []
        compiled = _recording_compiled(self.SHAPE, calls)
        arrays = {name: np.zeros(self.SHAPE, np.complex64) for name in ("x", "out", "work")}
        arrays[arg].flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            compiled.run(arrays["x"], arrays["out"], arrays["work"])
        assert calls == []

    def test_good_arrays_pass_their_addresses(self):
        calls = []
        compiled = _recording_compiled(self.SHAPE, calls)
        x = np.zeros(self.SHAPE, np.complex64)
        x.flags.writeable = False  # the input is only read
        out, work = np.zeros_like(x), np.zeros_like(x)
        compiled.run(x, out, work)
        px, po, pw = (a.__array_interface__["data"][0] for a in (x, out, work))
        assert [c[:2] for c in calls] == [
            (px, pw), (pw, po), (po, pw), (pw, po), (po, compiled._w5)
        ]

    @pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
    def test_run_makes_no_ndpointer_conversions(self, monkeypatch):
        conversions = []
        original = np.ctypeslib._ndptr.from_param.__func__

        def counting(cls, obj):
            conversions.append(obj)
            return original(cls, obj)

        monkeypatch.setattr(np.ctypeslib._ndptr, "from_param", classmethod(counting))
        compiled = _compiled(self.SHAPE, "single")
        x = np.ones(self.SHAPE, np.complex64)
        out = np.empty_like(x)
        compiled.run(x, out, np.empty_like(x))
        assert conversions == []
        assert np.allclose(out, np.fft.fftn(x))
