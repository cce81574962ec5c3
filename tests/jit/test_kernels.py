"""Kernel-level correctness of the cjit library against the NumPy plan.

The compiled kernels probe NumPy's complex multiply and match the
reference bit-for-bit on FMA hardware; on hosts without FMA the naive
multiply is ulp-bounded instead (DESIGN.md §18).
"""

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


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
@pytest.mark.parametrize("shape,precision", CJIT_CASES)
class TestCjitMatchesReferenceBitwise:
    def test_forward_and_inverse(self, shape, precision):
        rng = np.random.default_rng(44)
        cdt = np.complex64 if precision == "single" else np.complex128
        x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(cdt)
        plan = FiveStepPlan(shape, precision=precision)
        compiled = _compiled(shape, precision)
        fma = "fma" in cc.cmul_modes().values()
        for inverse in (False, True):
            ref = plan.execute(x, inverse=inverse)
            out = _run(compiled, x, inverse=inverse)
            if fma:
                rdt = np.float32 if precision == "single" else np.float64
                assert np.array_equal(out.view(rdt), ref.view(rdt))
            else:
                assert ulp_distance(out, ref) <= ULP_BOUND


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
