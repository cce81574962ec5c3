"""Codelet/kernel source emitter shared by every compiled backend.

The compiled hot path must agree with the NumPy reference *bitwise*
wherever that is achievable, so instead of hand-writing kernels twice
(once in C for the self-hosted ``cjit`` backend, once in Python for the
``numba`` backend) this module emits both from one description: the exact
butterfly DAG the :mod:`repro.fft.codelets` recursion performs, the exact
pattern-A/B index algebra of :mod:`repro.core.kernels`, and the exact
four-step decomposition of :func:`repro.fft.cooley_tukey.four_step_fft`.

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
    direct 16-point codelet when ``nx == 16``).

In C, the innermost loop of each multirow kernel carries ``#pragma omp
simd``: consecutive X elements (pattern A) or rows (pattern B) become
vector lanes, as consecutive CUDA threads do in the paper.  Why the lanes
stay bit-identical is told in :mod:`repro.jit.cc`.

All twiddle constants are *runtime arguments* (float-viewed tables from
the shared :data:`~repro.fft.twiddle.DEFAULT_CACHE`), never baked
literals, so one emitted function serves both precisions (Python) or is
emitted once per C scalar type, and the compiled path consumes the very
same table values as the reference.

Inverse transforms reuse the forward tables: the NumPy reference computes
an inverse as ``conj(F(conj(x)))`` with conjugated step twiddles, and
conjugation distributes exactly (sign flips only) through sums, products
and fused multiply-adds — so the emitted kernels take a ``sgn`` scalar
(±1) applied to every imaginary load and store, which is bit-equivalent
to the reference's conjugate sandwich.

Complex-multiply semantics are selectable per emission: NumPy's SIMD
complex product on FMA hardware contracts to ``fma(ar, br, -(ai*bi))`` /
``fma(ar, bi, ai*br)``; the C emitter can reproduce that (``cmul="fma"``)
for bit identity, or use the naive form (``cmul="naive"``) matching the
numba path, which is then only ulp-bounded against the reference (see
DESIGN.md §18 for the policy).
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
    "python_module",
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


class _Fn:
    """One emitted function: line buffer, temporaries, loop nesting."""

    def __init__(self, lang: str, ctype: str = "float", cmul: str = "naive"):
        if lang not in ("c", "py"):
            raise ValueError(f"unknown emission language {lang!r}")
        if cmul not in ("naive", "fma"):
            raise ValueError(f"unknown cmul mode {cmul!r}")
        self.lang = lang
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
        if self.lang == "c":
            self.emit(f"const {self.ctype} {name} = {expr};")
        else:
            self.emit(f"{name} = {expr}")
        return name

    @contextmanager
    def loop(self, var: str, bound, simd: bool = False):
        """A counted loop; ``simd`` marks it ``#pragma omp simd`` in C.

        Only loops whose iterations are independent may be marked: every
        read from a ``restrict`` input, every write to a distinct slot of
        a ``restrict`` output, no carried dependence and no reduction.
        The Python target ignores the flag.
        """
        if self.lang == "c":
            if simd:
                self.emit("#pragma omp simd")
            self.emit(f"for (long {var} = 0; {var} < {bound}; {var}++) {{")
        else:
            self.emit(f"for {var} in range({bound}):")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1
            if self.lang == "c":
                self.emit("}")

    def let(self, name: str, expr: str) -> str:
        """Bind an index expression to a (long in C) local."""
        if self.lang == "c":
            self.emit(f"const long {name} = {expr};")
        else:
            self.emit(f"{name} = {expr}")
        return name

    def store(self, target: str, expr: str) -> None:
        if self.lang == "c":
            self.emit(f"{target} = {expr};")
        else:
            self.emit(f"{target} = {expr}")

    # -- arithmetic -----------------------------------------------------

    def cmul(self, ar: str, ai: str, br: str, bi: str) -> tuple[str, str]:
        """``(ar + i*ai) * (br + i*bi)`` with the selected semantics."""
        if self.lang == "c" and self.cmul_mode == "fma":
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


def _signature(lang, name, ctype, args):
    if lang == "c":
        return f"void {name}({', '.join(args)}) {{"
    return f"def {name}({', '.join(args)}):"


def _emit_multirow(radix, pattern, lang, ctype="float", cmul="naive"):
    """Source text of one pattern-A or pattern-B multirow kernel."""
    fn = _Fn(lang, ctype, cmul)
    inp = "in" if lang == "c" else "inp"
    fn.let("d23", "d2 * d3")
    fn.let("m", "d23 * nx")
    if pattern == "a":
        fn.let("d0nx", f"{radix} * nx")
    outer = ("q", "d23") if pattern == "a" else ("q2", "d2")
    inner = ("ix", "nx") if pattern == "a" else ("r", "d3nx")
    if pattern == "b":
        fn.let("d3nx", "d3 * nx")
    with fn.loop("i1", "d1"):
        with fn.loop(*outer):
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
                    base = f"2 * (({j} * d1 + i1) * m + idx)"
                    b = fn.let(f"b{j}", base)
                    xs.append(
                        (fn.tmp(f"{inp}[{b}]"), fn.tmp(f"sgn * {inp}[{b} + 1]"))
                    )
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
    name = f"mr_{pattern}_{radix}"
    if lang == "c":
        name += "_f" if ctype == "float" else "_d"
        args = [f"const {ctype}* restrict in", f"{ctype}* restrict out"]
        if pattern == "a":
            args.append(f"const {ctype}* restrict w")
        args += [
            f"const {ctype}* restrict ctab",
            "long d1",
            "long d2",
            "long d3",
            "long nx",
            f"{ctype} sgn",
        ]
        head = [_signature("c", name, ctype, args)]
        if pattern == "b":
            head.append("    (void) ctab;" if radix < 8 else "")
        tail = ["}"]
    else:
        args = ["inp", "out"] + (["w"] if pattern == "a" else []) + [
            "ctab",
            "d1",
            "d2",
            "d3",
            "nx",
            "sgn",
        ]
        half = "first" if pattern == "a" else "second"
        head = [
            _signature("py", name, ctype, args),
            f'    """Pattern-{pattern.upper()} radix-{radix} multirow kernel '
            f'({half} axis half)."""',
        ]
        tail = []
    # Radix 2/4 never touch ctab; silence the unused parameter in C.
    if lang == "c" and pattern == "a" and radix < 8:
        head.append("    (void) ctab;")
    body = [ln for ln in head if ln] + fn.lines + tail
    return name, "\n".join(body)


def _emit_step5(nx, lang, ctype="float", cmul="naive"):
    """Source text of the step-5 kernel for ``nx``-point contiguous lines."""
    r1, r2 = step5_split(nx)
    fn = _Fn(lang, ctype, cmul)
    data = "data"

    def line_at(k):
        return f"line[{2 * k}]", f"line[{2 * k + 1}]"

    with fn.loop("row", "rows"):
        if lang == "c":
            fn.emit(f"{ctype}* restrict line = {data} + row * {2 * nx};")
        else:
            fn.let("line", f"row * {2 * nx}")
        if r2 == 1:
            # Direct 16-point codelet: no four-step stage, no line twiddles.
            xs = []
            for k in range(nx):
                re, im = line_at(k)
                re = re if lang == "c" else f"{data}[line + {2 * k}]"
                im = im if lang == "c" else f"{data}[line + {2 * k + 1}]"
                xs.append((fn.tmp(re), fn.tmp(f"sgn * {im}")))
            outs = fn.fft(xs)
            for k, (orr, oi) in enumerate(outs):
                re, im = line_at(k)
                re = re if lang == "c" else f"{data}[line + {2 * k}]"
                im = im if lang == "c" else f"{data}[line + {2 * k + 1}]"
                fn.store(re, orr)
                fn.store(im, f"sgn * {oi}")
        else:
            # Stage 1: r1 strided r2-point FFTs + four-step twiddle, into
            # the accumulator laid out [k2 * r1 + n1] (matching the
            # reference's intermediate), then stage 2: r2 contiguous
            # r1-point FFTs scattering to the digit-reversed line slots.
            if lang == "c":
                fn.emit(f"{ctype} acc[{2 * nx}];")
            with fn.loop("n1", r1):
                xs = []
                for n2 in range(r2):
                    if lang == "c":
                        b = fn.let(f"b{n2}", f"2 * (n1 + {r1 * n2})")
                        xs.append(
                            (fn.tmp(f"line[{b}]"), fn.tmp(f"sgn * line[{b} + 1]"))
                        )
                    else:
                        b = fn.let(f"b{n2}", f"line + 2 * (n1 + {r1 * n2})")
                        xs.append(
                            (
                                fn.tmp(f"{data}[{b}]"),
                                fn.tmp(f"sgn * {data}[{b} + 1]"),
                            )
                        )
                outs = fn.fft(xs)
                for k2 in range(r2):
                    orr, oi = outs[k2]
                    wr = fn.tmp(f"w[2 * ({k2 * r1} + n1)]")
                    wi = fn.tmp(f"w[2 * ({k2 * r1} + n1) + 1]")
                    rr, ri = fn.cmul(orr, oi, wr, wi)
                    fn.store(f"acc[2 * ({k2 * r1} + n1)]", rr)
                    fn.store(f"acc[2 * ({k2 * r1} + n1) + 1]", ri)
            with fn.loop("k2", r2):
                xs = []
                for n1 in range(r1):
                    xs.append(
                        (
                            fn.tmp(f"acc[2 * (k2 * {r1} + {n1})]"),
                            fn.tmp(f"acc[2 * (k2 * {r1} + {n1}) + 1]"),
                        )
                    )
                outs = fn.fft(xs)
                for k1, (orr, oi) in enumerate(outs):
                    if lang == "c":
                        tgt = f"line[2 * (k2 + {r2 * k1})]"
                        tgt1 = f"line[2 * (k2 + {r2 * k1}) + 1]"
                    else:
                        tgt = f"{data}[line + 2 * (k2 + {r2 * k1})]"
                        tgt1 = f"{data}[line + 2 * (k2 + {r2 * k1}) + 1]"
                    fn.store(tgt, orr)
                    fn.store(tgt1, f"sgn * {oi}")
    name = f"s5_{nx}"
    if lang == "c":
        name += "_f" if ctype == "float" else "_d"
        args = [
            f"{ctype}* restrict data",
            f"const {ctype}* restrict w",
            f"const {ctype}* restrict ctab",
            "long rows",
            f"{ctype} sgn",
        ]
        head = [_signature("c", name, ctype, args)]
        if r2 == 1:
            head.append("    (void) w;")
        tail = ["}"]
    else:
        args = ["data", "w", "ctab", "acc", "rows", "sgn"]
        head = [
            _signature("py", name, ctype, args),
            f'    """Step-5 kernel: {nx}-point FFTs '
            f"({r1} x {r2} four-step) along contiguous lines.\"\"\"",
        ]
        tail = []
    return name, "\n".join(head + fn.lines + tail)


_C_PRELUDE = """\
/* Auto-generated by repro.jit.emit -- the compiled five-step hot path,
 * {ctype} kernels.  One function per radix/size; all twiddle tables are
 * runtime arguments taken from the same cache as the NumPy reference.
 * Complex multiplies use {cmul} semantics (probed against this NumPy
 * build).  Compile with -ffp-contract=off -fopenmp-simd: contraction is
 * explicit where wanted, and the multirow inner loops are vectorized.
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
    parts = [_C_PRELUDE.format(ctype=ctype, cmul=cmul)]
    for radix in CODELET_RADICES:
        parts.append(_emit_multirow(radix, "a", "c", ctype, cmul)[1])
        parts.append(_emit_multirow(radix, "b", "c", ctype, cmul)[1])
    for nx in STEP5_SIZES:
        parts.append(_emit_step5(nx, "c", ctype, cmul)[1])
    return "\n\n".join(parts) + "\n"


_PY_PRELUDE = '''\
"""Auto-generated five-step loop kernels (the numba backend's source).

Generated by :mod:`repro.jit.emit` (``python -m repro.jit.emit`` rewrites
this file); a unit test asserts the checked-in text matches the emitter,
so the C and Python kernels can never drift apart.  The functions run
under ``@njit(cache=True, nogil=True)`` when numba is available and as
plain Python (on tiny grids, in tests) when it is not: all arithmetic is
on array scalars, so pure-Python execution preserves float32/float64
semantics exactly.

Arguments are flat real-viewed arrays (``complex`` seen as ``[re, im]``
pairs): ``inp``/``out``/``data`` the state, ``w`` the four-step twiddle
table, ``ctab`` the packed codelet-constant table
(:data:`repro.jit.emit.CTAB8_OFFSET` / :data:`~repro.jit.emit.CTAB16_OFFSET`),
``acc`` a per-call scratch line, and ``sgn`` (±1, same dtype as the data)
the conjugation sign for inverse transforms.  Complex multiplies are the
naive form, so results are ulp-bounded against NumPy (DESIGN.md §18).
"""

# ruff: noqa: E501
'''


def python_module() -> str:
    """The complete generated Python module (``repro.jit.loops``) text."""
    parts = [_PY_PRELUDE]
    mr_a, mr_b, s5 = [], [], []
    for radix in CODELET_RADICES:
        name_a, src_a = _emit_multirow(radix, "a", "py")
        name_b, src_b = _emit_multirow(radix, "b", "py")
        mr_a.append((radix, name_a))
        mr_b.append((radix, name_b))
        parts += [src_a, "", src_b, ""]
    for nx in STEP5_SIZES:
        name, src = _emit_step5(nx, "py")
        s5.append((nx, name))
        parts += [src, ""]
    parts.append(
        "#: Kernel lookup tables used by the backend orchestration."
    )
    parts.append(
        "MULTIROW_A = {" + ", ".join(f"{r}: {n}" for r, n in mr_a) + "}"
    )
    parts.append(
        "MULTIROW_B = {" + ", ".join(f"{r}: {n}" for r, n in mr_b) + "}"
    )
    parts.append("STEP5 = {" + ", ".join(f"{n}: {f}" for n, f in s5) + "}")
    parts.append("")
    parts.append(
        "KERNEL_NAMES = ("
        + ", ".join(f'"{n}"' for _, n in mr_a + mr_b + s5)
        + ")"
    )
    return "\n".join(parts) + "\n"


def _main() -> None:
    """Rewrite ``repro/jit/loops.py`` from the emitter (dev tool)."""
    from pathlib import Path

    target = Path(__file__).resolve().parent / "loops.py"
    target.write_text(python_module())
    print(f"wrote {target}")


if __name__ == "__main__":
    _main()
