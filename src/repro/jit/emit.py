"""C source emitter for the ``cjit`` compiled backend.

The compiled hot path must agree with the NumPy reference *bitwise*
wherever that is achievable, so instead of hand-writing kernels this
module emits them from one description: the exact butterfly DAG the
:mod:`repro.fft.codelets` recursion performs, the exact pattern-A/B
index algebra of :mod:`repro.core.kernels`, and the exact four-step
decomposition of :func:`repro.fft.cooley_tukey.four_step_fft`.

Three kernel families are emitted, one function per radix/size so the
compiler sees straight-line butterflies with no dispatch in the hot loop:

``mr_a_{r}``
    Pattern-A multirow kernel: radix-``r`` FFT down axis 0 of the
    ``(d0, d1, d2, d3, nx)`` state with the four-step twiddle multiply
    fused into the transposing write (:func:`multirow_half1`).
``mr_b_{r}``
    Pattern-B multirow kernel: the second-half radix-``r`` FFT with the
    digit-reversing write (:func:`multirow_half2`).
``s5_{nx}``
    Step-5 kernel: ``nx``-point FFTs along the contiguous last axis,
    decomposed ``nx = r1 * r2`` exactly as ``four_step_fft`` does (or the
    direct 16-point codelet when ``nx == 16``).  It runs the lines in
    chunks through the static ``s5_rows_{nx}`` line transform; a
    ``scale`` other than 1 is applied to each finished chunk while it is
    still in cache (the static ``scale`` helper), as the complex multiply
    by ``(scale, 0)`` that NumPy's ``x *= scale`` performs, so signed
    zeros match :func:`repro.fft.normalization.apply_norm`.

In C, the innermost loop of each multirow kernel carries ``#pragma omp
simd``: consecutive X elements (pattern A) or rows (pattern B) become
vector lanes, as consecutive CUDA threads do in the paper.  Each kernel's
work is a static ``*_span`` helper over a range of its outer iterations
(the multirow kernels' ``i1`` x ``q``/``q2`` pairs, step 5's chunks); the
exported kernel calls it once over the whole range when its trailing
``nthreads`` argument is 1, or splits the range into one contiguous block
per thread under ``#pragma omp parallel for``, as the paper's thread
blocks run on the SMs.  A one-thread call therefore never enters the
OpenMP runtime.  Why vector lanes and threads stay bit-identical is told
in :mod:`repro.jit.cc`.

All twiddle constants are *runtime arguments* (float-viewed tables from
the shared :data:`~repro.fft.twiddle.DEFAULT_CACHE`), never baked
literals: each function is emitted once per C scalar type, and the
compiled path consumes the very same table values as the reference.

Inverse transforms reuse the forward tables: the NumPy reference computes
an inverse as ``conj(F(conj(x)))`` with conjugated step twiddles, and
conjugation distributes exactly (sign flips only) through sums, products
and fused multiply-adds — so the emitted kernels take a ``sgn`` scalar
(±1) applied to every imaginary load and store, which is bit-equivalent
to the reference's conjugate sandwich.

Complex-multiply semantics are selected per emission by the runtime
probe (:func:`repro.jit.cc.cmul_modes`): NumPy's SIMD complex product on
FMA hardware contracts to ``fma(ar, br, -(ai*bi))`` /
``fma(ar, bi, ai*br)``, which ``cmul="fma"`` reproduces for bit
identity; hosts without FMA get the naive form (``cmul="naive"``),
ulp-bounded against the reference (DESIGN.md §18).
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "CODELET_RADICES",
    "STEP5_SIZES",
    "CTAB8_OFFSET",
    "CTAB16_OFFSET",
    "CTAB_LEN",
    "step5_split",
    "c_module",
]

#: Codelet radices with emitted straight-line butterflies (the axis-split
#: factors :func:`repro.core.five_step.split_axis` can produce for
#: supported shapes).
CODELET_RADICES = (2, 4, 8, 16)

#: Step-5 line lengths with an emitted kernel.  Larger ``nx`` recurses in
#: the reference implementation and stays on the NumPy path.
STEP5_SIZES = (16, 32, 64, 128, 256)

#: Layout of the packed codelet-constant table (``ctab``) every kernel
#: receives: the radix-8 constant table (4 entries, spelled exactly as
#: :meth:`~repro.fft.twiddle.TwiddleCache.codelet8`) followed by the
#: 16-point half table (8 entries, :meth:`TwiddleCache.half`).
CTAB8_OFFSET = 0
CTAB16_OFFSET = 4
CTAB_LEN = 12


def step5_split(nx: int) -> tuple[int, int]:
    """The ``(r1, r2)`` four-step split the reference uses for ``nx``.

    Mirrors :func:`repro.fft.cooley_tukey.split_radices`: ``r1`` is the
    largest codelet size dividing ``nx``.  ``(nx, 1)`` means the direct
    codelet (no four-step stage).
    """
    if nx not in STEP5_SIZES:
        raise ValueError(f"no emitted step-5 kernel for nx={nx}")
    if nx == 16:
        return (16, 1)
    return (16, nx // 16)


def _emit_split(name: str, params: list[str], count: str) -> str:
    """Source text of exported kernel ``name``: its ``{name}_span`` helper
    over outer iterations ``[0, count)``, on ``nthreads`` cores.

    ``params`` are the kernel's own parameters (the helper takes them
    too, then ``lo`` and ``hi``).  One thread calls the helper directly;
    more split the range into one contiguous block each.
    """
    args = ", ".join(p.split()[-1] for p in params)
    return "\n".join([
        f"void {name}({', '.join(params + ['int nthreads'])}) {{",
        f"    const long n = {count};",
        "    if (nthreads < 2) {",
        f"        {name}_span({args}, 0, n);",
        "        return;",
        "    }",
        "    #pragma omp parallel for num_threads(nthreads) schedule(static)",
        "    for (int t = 0; t < nthreads; t++) {",
        f"        {name}_span({args}, n * t / nthreads, n * (t + 1) / nthreads);",
        "    }",
        "}",
    ])


def _span_head(name: str, params: list[str]) -> str:
    """The header line of the static ``{name}_span`` helper."""
    return f"static {_NOINLINE} {name}_span({', '.join(params + ['long lo', 'long hi'])}) {{"


class _Fn:
    """One emitted function: line buffer, temporaries, loop nesting."""

    def __init__(self, ctype: str = "float", cmul: str = "naive"):
        if cmul not in ("naive", "fma"):
            raise ValueError(f"unknown cmul mode {cmul!r}")
        self.ctype = ctype
        self.cmul_mode = cmul
        self.lines: list[str] = []
        self.depth = 1
        self._n = 0

    # -- structure ------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def tmp(self, expr: str) -> str:
        name = f"t{self._n}"
        self._n += 1
        self.emit(f"const {self.ctype} {name} = {expr};")
        return name

    @contextmanager
    def loop(self, var: str, bound, simd: bool = False, start=0):
        """A counted loop over ``[start, bound)``; ``simd`` marks it
        ``#pragma omp simd``."""
        if simd:
            self.emit("#pragma omp simd")
        self.emit(f"for (long {var} = {start}; {var} < {bound}; {var}++) {{")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1
            self.emit("}")

    def let(self, name: str, expr: str) -> str:
        """Bind an index expression to a ``long`` local."""
        self.emit(f"const long {name} = {expr};")
        return name

    def store(self, target: str, expr: str) -> None:
        self.emit(f"{target} = {expr};")

    # -- arithmetic -----------------------------------------------------

    def cmul(self, ar: str, ai: str, br: str, bi: str) -> tuple[str, str]:
        """``(ar + i*ai) * (br + i*bi)`` with the selected semantics."""
        if self.cmul_mode == "fma":
            f = "fmaf" if self.ctype == "float" else "fma"
            rr = self.tmp(f"{f}({ar}, {br}, -({ai} * {bi}))")
            ri = self.tmp(f"{f}({ar}, {bi}, {ai} * {br})")
        else:
            rr = self.tmp(f"{ar} * {br} - {ai} * {bi}")
            ri = self.tmp(f"{ar} * {bi} + {ai} * {br}")
        return rr, ri

    def ctab_load(self, index: int) -> tuple[str, str]:
        return (self.tmp(f"ctab[{2 * index}]"), self.tmp(f"ctab[{2 * index + 1}]"))

    def fft(self, xs: list[tuple[str, str]]) -> list[tuple[str, str]]:
        """The codelet butterfly DAG, structured exactly like the reference.

        ``xs`` is a list of ``(re, im)`` expression names; the return value
        are the ``(re, im)`` names of the un-normalized forward DFT, with
        the same operation order as :func:`repro.fft.codelets.codelet_fft`.
        """
        n = len(xs)
        if n == 1:
            return xs
        if n == 2:
            (ar, ai), (br, bi) = xs
            return [
                (self.tmp(f"{ar} + {br}"), self.tmp(f"{ai} + {bi}")),
                (self.tmp(f"{ar} - {br}"), self.tmp(f"{ai} - {bi}")),
            ]
        if n == 4:
            (r0, i0), (r1, i1), (r2, i2), (r3, i3) = xs
            tr = self.tmp(f"{r0} + {r2}")
            ti = self.tmp(f"{i0} + {i2}")
            ur = self.tmp(f"{r1} + {r3}")
            ui = self.tmp(f"{i1} + {i3}")
            o0 = (self.tmp(f"{tr} + {ur}"), self.tmp(f"{ti} + {ui}"))
            o2 = (self.tmp(f"{tr} - {ur}"), self.tmp(f"{ti} - {ui}"))
            vr = self.tmp(f"{r0} - {r2}")
            vi = self.tmp(f"{i0} - {i2}")
            wr = self.tmp(f"{r1} - {r3}")
            wi = self.tmp(f"{i1} - {i3}")
            # (vr+i*vi) + (wr+i*wi) * -1j: the -1j rotation is exact.
            o1 = (self.tmp(f"{vr} + {wi}"), self.tmp(f"{vi} - {wr}"))
            o3 = (self.tmp(f"{vr} - {wi}"), self.tmp(f"{vi} + {wr}"))
            return [o0, o1, o2, o3]
        if n not in (8, 16):
            raise ValueError(f"no emitted codelet for radix {n}")
        even = self.fft(xs[0::2])
        odd = self.fft(xs[1::2])
        off = CTAB8_OFFSET if n == 8 else CTAB16_OFFSET
        out: list[tuple[str, str] | None] = [None] * n
        h = n // 2
        for k in range(h):
            er, ei = even[k]
            orr, oi = odd[k]
            wr, wi = self.ctab_load(off + k)
            tr, ti = self.cmul(orr, oi, wr, wi)
            out[k] = (self.tmp(f"{er} + {tr}"), self.tmp(f"{ei} + {ti}"))
            out[k + h] = (self.tmp(f"{er} - {tr}"), self.tmp(f"{ei} - {ti}"))
        return out  # type: ignore[return-value]


def _emit_multirow(radix, pattern, ctype="float", cmul="naive"):
    """Source text of one pattern-A or pattern-B multirow kernel."""
    fn = _Fn(ctype, cmul)
    fn.let("d23", "d2 * d3")
    fn.let("m", "d23 * nx")
    if pattern == "a":
        fn.let("d0nx", f"{radix} * nx")
    outer, per_i1 = ("q", "d23") if pattern == "a" else ("q2", "d2")
    inner = ("ix", "nx") if pattern == "a" else ("r", "d3nx")
    if pattern == "b":
        fn.let("d3nx", "d3 * nx")
    # Outer iteration io = i1 * per_i1 + q is the pair (i1, q); each
    # writes its own output slots, so any range [lo, hi) of them is a
    # thread's.  (i1, q) advance with io, with no division per step.
    fn.emit(f"long i1 = lo / {per_i1};")
    fn.emit(f"long {outer} = lo - i1 * {per_i1};")
    with fn.loop("io", "hi", start="lo"):
        # The innermost loop walks consecutive X elements (pattern A)
        # or consecutive rows of the digit block (pattern B): the
        # paper's one-thread-per-element stream, one vector lane each.
        with fn.loop(*inner, simd=True):
            if pattern == "a":
                fn.let("idx", "q * nx + ix")
            else:
                fn.let("idx", "q2 * d3nx + r")
            xs = []
            for j in range(radix):
                b = fn.let(f"b{j}", f"2 * (({j} * d1 + i1) * m + idx)")
                xs.append((fn.tmp(f"in[{b}]"), fn.tmp(f"sgn * in[{b} + 1]")))
            outs = fn.fft(xs)
            for k, (orr, oi) in enumerate(outs):
                if pattern == "a":
                    o = fn.let(
                        f"o{k}", f"2 * ((i1 * d23 + q) * d0nx + {k} * nx + ix)"
                    )
                    wr = fn.tmp(f"w[2 * ({k} * d1 + i1)]")
                    wi = fn.tmp(f"w[2 * ({k} * d1 + i1) + 1]")
                    rr, ri = fn.cmul(orr, oi, wr, wi)
                    fn.store(f"out[{o}]", rr)
                    fn.store(f"out[{o} + 1]", f"sgn * {ri}")
                else:
                    o = fn.let(
                        f"o{k}",
                        f"2 * (((i1 * d2 + q2) * {radix} + {k}) * d3nx + r)",
                    )
                    fn.store(f"out[{o}]", orr)
                    fn.store(f"out[{o} + 1]", f"sgn * {oi}")
        fn.emit(f"if (++{outer} == {per_i1}) {{")
        fn.emit(f"    {outer} = 0;")
        fn.emit("    i1++;")
        fn.emit("}")
    name = f"mr_{pattern}_{radix}_{ctype[0]}"
    params = [f"const {ctype}* restrict in", f"{ctype}* restrict out"]
    if pattern == "a":
        params.append(f"const {ctype}* restrict w")
    params += [
        f"const {ctype}* restrict ctab",
        "long d1",
        "long d2",
        "long d3",
        "long nx",
        f"{ctype} sgn",
    ]
    head = [_span_head(name, params)]
    # Radix 2/4 never touch ctab; silence the unused parameter.
    if radix < 8:
        head.append("    (void) ctab;")
    span = "\n".join(head + fn.lines + ["}"])
    count = "d1 * d2 * d3" if pattern == "a" else "d1 * d2"
    return span + "\n\n" + _emit_split(name, params, count)


#: Complex elements per step-5 chunk: the rows the kernel finishes before
#: scaling them, a block that is still in L1 when the scale pass reads it.
STEP5_CHUNK = 2048

#: Keeps each static helper one function.  Inlined into its caller, the
#: line transform would be optimized again inside the chunk loop, which
#: measurably slows the cold compile.
_NOINLINE = "void __attribute__((noinline))"


def _emit_step5_rows(nx, ctype="float", cmul="naive"):
    """Source text of the step-5 line transform, in place over ``rows`` lines."""
    r1, r2 = step5_split(nx)
    fn = _Fn(ctype, cmul)

    with fn.loop("row", "rows"):
        fn.emit(f"{ctype}* restrict line = data + row * {2 * nx};")
        if r2 == 1:
            # Direct 16-point codelet: no four-step stage, no line twiddles.
            xs = [
                (fn.tmp(f"line[{2 * k}]"), fn.tmp(f"sgn * line[{2 * k + 1}]"))
                for k in range(nx)
            ]
            outs = fn.fft(xs)
            for k, (orr, oi) in enumerate(outs):
                fn.store(f"line[{2 * k}]", orr)
                fn.store(f"line[{2 * k + 1}]", f"sgn * {oi}")
        else:
            # Stage 1: r1 strided r2-point FFTs + four-step twiddle, into
            # the accumulator laid out [k2 * r1 + n1] (matching the
            # reference's intermediate), then stage 2: r2 contiguous
            # r1-point FFTs scattering to the digit-reversed line slots.
            fn.emit(f"{ctype} acc[{2 * nx}];")
            with fn.loop("n1", r1):
                xs = []
                for n2 in range(r2):
                    b = fn.let(f"b{n2}", f"2 * (n1 + {r1 * n2})")
                    xs.append((fn.tmp(f"line[{b}]"), fn.tmp(f"sgn * line[{b} + 1]")))
                outs = fn.fft(xs)
                for k2 in range(r2):
                    orr, oi = outs[k2]
                    wr = fn.tmp(f"w[2 * ({k2 * r1} + n1)]")
                    wi = fn.tmp(f"w[2 * ({k2 * r1} + n1) + 1]")
                    rr, ri = fn.cmul(orr, oi, wr, wi)
                    fn.store(f"acc[2 * ({k2 * r1} + n1)]", rr)
                    fn.store(f"acc[2 * ({k2 * r1} + n1) + 1]", ri)
            with fn.loop("k2", r2):
                xs = [
                    (
                        fn.tmp(f"acc[2 * (k2 * {r1} + {n1})]"),
                        fn.tmp(f"acc[2 * (k2 * {r1} + {n1}) + 1]"),
                    )
                    for n1 in range(r1)
                ]
                outs = fn.fft(xs)
                for k1, (orr, oi) in enumerate(outs):
                    fn.store(f"line[2 * (k2 + {r2 * k1})]", orr)
                    fn.store(f"line[2 * (k2 + {r2 * k1}) + 1]", f"sgn * {oi}")
    args = [
        f"{ctype}* restrict data",
        f"const {ctype}* restrict w",
        f"const {ctype}* restrict ctab",
        "long rows",
        f"{ctype} sgn",
    ]
    head = [f"static {_NOINLINE} s5_rows_{nx}_{ctype[0]}({', '.join(args)}) {{"]
    if r2 == 1:
        head.append("    (void) w;")
    return "\n".join(head + fn.lines + ["}"])


def _emit_scale(ctype="float", cmul="naive"):
    """Source text of ``scale_*``: ``n`` complex values times ``(scale, 0)``."""
    fn = _Fn(ctype, cmul)
    with fn.loop("k", "n"):
        re = fn.tmp("p[2 * k]")
        im = fn.tmp("p[2 * k + 1]")
        rr, ri = fn.cmul(re, im, "scale", "0")
        fn.store("p[2 * k]", rr)
        fn.store("p[2 * k + 1]", ri)
    args = f"{ctype}* restrict p, long n, {ctype} scale"
    head = [f"static {_NOINLINE} scale_{ctype[0]}({args}) {{"]
    return "\n".join(head + fn.lines + ["}"])


def _emit_step5(nx, ctype="float"):
    """Source text of the exported step-5 kernel for ``nx``-point lines.

    Rows run in chunks of :data:`STEP5_CHUNK` elements, the chunks split
    across ``nthreads`` cores; a ``scale`` other than 1 is applied to each
    finished chunk while it is still in cache.  The line transform itself
    is a separate function, so it compiles exactly as it would with no
    scale at all.
    """
    chunk = max(1, STEP5_CHUNK // nx)
    t = ctype[0]
    name = f"s5_{nx}_{t}"
    params = [
        f"{ctype}* restrict data",
        f"const {ctype}* restrict w",
        f"const {ctype}* restrict ctab",
        "long rows",
        f"{ctype} sgn",
        f"{ctype} scale",
    ]
    span = "\n".join([
        _span_head(name, params),
        "    for (long c = lo; c < hi; c++) {",
        f"        const long r0 = c * {chunk};",
        f"        const long n = rows - r0 < {chunk} ? rows - r0 : {chunk};",
        f"        {ctype}* restrict block = data + r0 * {2 * nx};",
        f"        s5_rows_{nx}_{t}(block, w, ctab, n, sgn);",
        "        if (scale != 1) {",
        f"            scale_{t}(block, n * {nx}, scale);",
        "        }",
        "    }",
        "}",
    ])
    count = f"(rows + {chunk - 1}) / {chunk}"
    return span + "\n\n" + _emit_split(name, params, count)


_C_PRELUDE = """\
/* Auto-generated by repro.jit.emit -- the compiled five-step hot path,
 * {ctype} kernels.  One function per radix/size; all twiddle tables are
 * runtime arguments taken from the same cache as the NumPy reference.
 * Complex multiplies use {cmul} semantics (probed against this NumPy
 * build).  Compile with -ffp-contract=off -fopenmp: contraction is
 * explicit where wanted, the multirow inner loops are vectorized and
 * the outer loops split across nthreads cores (serial without OpenMP).
 */
#include <math.h>
"""


def c_module(ctype: str = "float", cmul: str = "fma") -> str:
    """The C translation unit for one scalar type of the ``cjit`` backend.

    ``ctype`` is ``"float"`` or ``"double"``; each precision is its own
    unit so a process compiles only the one its plans need.  ``cmul``
    selects the complex-multiply form (``"fma"`` or ``"naive"``),
    normally the output of the runtime probe against the running NumPy
    build.
    """
    # The static helpers come first, ahead of every exported kernel.
    parts = [_C_PRELUDE.format(ctype=ctype, cmul=cmul), _emit_scale(ctype, cmul)]
    parts += [_emit_step5_rows(nx, ctype, cmul) for nx in STEP5_SIZES]
    for radix in CODELET_RADICES:
        parts.append(_emit_multirow(radix, "a", ctype, cmul))
        parts.append(_emit_multirow(radix, "b", ctype, cmul))
    for nx in STEP5_SIZES:
        parts.append(_emit_step5(nx, ctype))
    return "\n\n".join(parts) + "\n"
