"""The emitted C translation units: symbols, cmul modes, SIMD pragmas.

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
        m = re.match(r"void (\w+)\(", line)
        if m:
            body = []
            funcs[m.group(1)] = (i, body)
        elif body is not None:
            body.append(line)
    return funcs


def _marked(body: list[str]) -> list[int]:
    return [i for i, ln in enumerate(body) if ln.strip() == PRAGMA]


PRAGMA = "#pragma omp simd"


@pytest.mark.parametrize("ctype", ["float", "double"])
class TestSimdPragma:
    def test_pragma_on_exactly_the_multirow_inner_loop(self, ctype):
        funcs = _functions(emit.c_module(ctype, "fma"))
        assert len(funcs) == 2 * len(emit.CODELET_RADICES) + len(
            emit.STEP5_SIZES
        )
        for name, (_, body) in funcs.items():
            marked = _marked(body)
            if name.startswith("s5_"):
                # The step-5 line transform is in place: never marked.
                assert marked == [], name
                continue
            assert len(marked) == 1, name
            loop = body[marked[0] + 1].strip()
            var = "ix" if name.startswith("mr_a_") else "r"
            assert loop.startswith(f"for (long {var} = 0;"), (name, loop)
            # Innermost: no loop opens inside (or after) the marked one.
            rest = body[marked[0] + 2 :]
            assert not any(ln.strip().startswith("for (") for ln in rest), name


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
    required = ["gcc", *cc.REQUIRED_FLAGS]
    result = subprocess.run(
        required + list(cc.TUNING_FLAGS) + base, capture_output=True, text=True
    )
    if result.returncode != 0:
        result = subprocess.run(required + base, capture_output=True, text=True)
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
        if name.startswith("s5_"):
            continue
        (pragma,) = _marked(body)
        first, last = head + 2 + pragma, head + len(body)
        if not any(first <= ln <= last for ln in vectorized):
            scalar.append(name)
    assert not scalar, f"gcc left these kernels scalar: {scalar}"
