"""The emitted C translation units: symbols, cmul modes, OpenMP pragmas.

:func:`repro.jit.emit.c_module` is the only source of the ``cjit``
kernels; these tests pin its structure without compiling, and the slow
test asks gcc whether every marked loop really vectorized.
"""

import re
import shutil
import subprocess

import pytest

from repro.jit import emit


class TestGeneratedModule:
    def test_c_module_exports_every_symbol(self):
        for ctype, suffix in (("float", "f"), ("double", "d")):
            source = emit.c_module(ctype, "naive")
            other = "d" if suffix == "f" else "f"
            for radix in emit.CODELET_RADICES:
                assert f"mr_a_{radix}_{suffix}" in source
                assert f"mr_b_{radix}_{suffix}" in source
                assert f"mr_a_{radix}_{other}" not in source
            for nx in emit.STEP5_SIZES:
                assert f"s5_{nx}_{suffix}" in source

    def test_c_module_cmul_modes_differ(self):
        naive = emit.c_module("float", "naive")
        fma = emit.c_module("float", "fma")
        assert naive != fma
        assert "fmaf" in fma and "fmaf" not in naive
        assert "fma(" in emit.c_module("double", "fma")


def _functions(source: str) -> dict[str, tuple[int, list[str]]]:
    """Split a C unit into ``{function name: (header line, body lines)}``.

    Line numbers are 1-based, so ``body[i]`` is line ``header + 1 + i``.
    """
    funcs: dict[str, tuple[int, list[str]]] = {}
    body = None
    for i, line in enumerate(source.splitlines(), start=1):
        m = re.match(r"(?:static )?void (?:__attribute__\(\(\w+\)\) )?(\w+)\(", line)
        if m:
            body = []
            funcs[m.group(1)] = (i, body)
        elif body is not None:
            body.append(line)
    return funcs


def _marked(body: list[str]) -> list[int]:
    return [i for i, ln in enumerate(body) if ln.strip() == PRAGMA]


PRAGMA = "#pragma omp simd"


def _exported(funcs: dict) -> list[str]:
    """The kernels the library binds: every ``mr_*``/``s5_*`` function
    but the static helpers."""
    return [
        name
        for name in funcs
        if name.startswith(("mr_", "s5_"))
        and not name.endswith("_span")
        and not name.startswith("s5_rows_")
    ]


@pytest.mark.parametrize("ctype", ["float", "double"])
class TestSimdPragma:
    def test_pragma_on_exactly_the_multirow_inner_loop(self, ctype):
        funcs = _functions(emit.c_module(ctype, "fma"))
        exported = _exported(funcs)
        assert len(exported) == 2 * len(emit.CODELET_RADICES) + len(
            emit.STEP5_SIZES
        )
        for name, (_, body) in funcs.items():
            marked = _marked(body)
            if not (name.startswith("mr_") and name.endswith("_span")):
                # The multirow loops live in the span helpers; the
                # step-5 line transform is in place: never marked.
                assert marked == [], name
                continue
            assert len(marked) == 1, name
            loop = body[marked[0] + 1].strip()
            var = "ix" if name.startswith("mr_a_") else "r"
            assert loop.startswith(f"for (long {var} = 0;"), (name, loop)
            # Innermost: no loop opens inside (or after) the marked one.
            rest = body[marked[0] + 2 :]
            assert not any(ln.strip().startswith("for (") for ln in rest), name


@pytest.mark.parametrize("ctype", ["float", "double"])
class TestParallelPragma:
    def test_every_kernel_splits_its_span(self, ctype):
        """Every exported kernel takes ``nthreads`` last, calls its span
        helper once over the whole range on one thread (no OpenMP
        runtime), and otherwise hands each thread one block of it."""
        source = emit.c_module(ctype, "fma")
        lines = source.splitlines()
        funcs = _functions(source)
        for name in _exported(funcs):
            head, body = funcs[name]
            assert lines[head - 1].endswith("int nthreads) {"), name
            assert f"{name}_span" in funcs, name
            code = [ln.strip() for ln in body]
            serial = code.index("if (nthreads < 2) {")
            assert code[serial + 1].startswith(f"{name}_span("), name
            assert code[serial + 1].endswith(", 0, n);"), name
            assert code[serial + 2] == "return;", name
            (pragma,) = [i for i, ln in enumerate(code) if "omp parallel" in ln]
            assert pragma > serial, name
            assert code[pragma] == (
                "#pragma omp parallel for num_threads(nthreads) schedule(static)"
            ), name
            assert code[pragma + 1] == "for (int t = 0; t < nthreads; t++) {"
            assert code[pragma + 2].startswith(f"{name}_span("), name
            assert code[pragma + 2].endswith(
                ", n * t / nthreads, n * (t + 1) / nthreads);"
            ), name
        helpers = [n for n in funcs if n not in _exported(funcs)]
        for name in helpers:
            assert not any("omp parallel" in ln for ln in funcs[name][1]), name


@pytest.mark.slow
@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
def test_gcc_vectorizes_every_multirow_inner_loop(tmp_path):
    """gcc's optimization report names every marked ``mr_*_f`` loop as
    vectorized, so an emitter edit cannot silently make them scalar."""
    from repro.jit import cc

    source = emit.c_module("float", "fma")
    c_path = tmp_path / "kernels.c"
    c_path.write_text(source)
    base = ["-fPIC", "-shared", "-fopt-info-vec-optimized", str(c_path)]
    base += ["-o", str(tmp_path / "kernels.so"), "-lm"]
    # The flags the library is built with, threads included.
    for flags in cc._flag_sets():
        result = subprocess.run(["gcc", *flags, *base], capture_output=True, text=True)
        if result.returncode == 0:
            break
    assert result.returncode == 0, result.stderr[:2000]
    vectorized = {
        int(m.group(1))
        for m in re.finditer(r"kernels\.c:(\d+):\d+: optimized: loop vectorized",
                             result.stderr)
    }
    # gcc reports a loop at a statement inside its body.  The marked
    # loop is the last loop of its kernel, so a report between it and
    # the kernel's end is that loop's.
    scalar = []
    for name, (head, body) in _functions(source).items():
        if not (name.startswith("mr_") and name.endswith("_span")):
            continue
        (pragma,) = _marked(body)
        first, last = head + 2 + pragma, head + len(body)
        if not any(first <= ln <= last for ln in vectorized):
            scalar.append(name)
    assert not scalar, f"gcc left these kernels scalar: {scalar}"
