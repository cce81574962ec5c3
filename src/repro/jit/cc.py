"""Self-hosted C backend: runtime compilation, caching and binding.

The compiled backend needs no package beyond NumPy, only a C toolchain
— every manylinux build box, CI runner and HPC login node ships one.
This module turns the emitted kernel source
(:func:`repro.jit.emit.c_module`) into a loadable shared library:

1. **Probe** the running NumPy's complex-multiply semantics.  NumPy's
   SIMD complex product contracts to FMA form on FMA hardware; a tiny
   probe library computes both candidate forms and the emitter is told
   which one NumPy actually used, so the main kernels reproduce the
   reference bit-for-bit where the hardware allows (DESIGN.md §18).
2. **Compile** one library per precision, once per distinct source
   text: the float and double kernels are separate units, so a
   single-precision process never pays for the double build.  Each
   library lands in a content-addressed on-disk cache
   (``$REPRO_JIT_CACHE`` or a per-user tmp directory), so later
   processes just ``dlopen`` — warm-up cost is paid once per machine,
   not once per process.
3. **Bind** via :mod:`ctypes`, arrays as bare ``c_void_p`` addresses:
   converting an address costs a fraction of an ``ndpointer`` check, so
   the caller validates each array once and passes its address
   (:meth:`repro.jit.compiled.CompiledFiveStep.run`).  ``ctypes``
   releases the GIL for the duration of every call, which is what gives
   ``FFTServer(n_workers>1)`` real parallel compute on the compiled path.

Compile flags come in three lists.  :data:`REQUIRED_FLAGS` are part of
the numerical contract: ``-ffp-contract=off`` keeps every multiply-add
exactly as emitted (fused only where the source says ``fma``), and
``-fopenmp-simd`` honours the ``#pragma omp simd`` the emitter puts on
the multirow kernels' innermost loop (X in pattern A, the row index in
pattern B).  :data:`THREAD_FLAGS` (``-fopenmp``, a superset of
``-fopenmp-simd``) also honour the ``#pragma omp parallel for`` that
hands each thread one block of a kernel's outer iterations (the multirow
kernels' ``i1`` x ``q`` pairs, step 5's chunks).  Vectorized lanes and
threads stay bit-identical to scalar code: each output element is
computed by one lane of one thread with the same IEEE operations in the
same order, the blocks write disjoint outputs (a ``restrict`` input and
output in the multirow kernels, disjoint row chunks in step 5), every
block runs the same loop code over whole inner loops, and there are no
reductions to reassociate — so the thread count changes which core
computes an element, never its value.  The in-place step-5 line
transform carries no simd pragma.  :data:`TUNING_FLAGS` only pick the
host's widest vector unit.  Both optional lists are best effort: a
toolchain that rejects one (no libgomp, another architecture) gets a
retry without it, and without OpenMP the same source builds as serial
kernels that run the blocks one after another.  Each cached library is
keyed on the compiler, the flags that built it and the source, so a
change to any of them builds afresh.

Everything here degrades to ``None``/``False`` rather than raising when
no compiler exists; the registry then resolves plans back to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.jit import emit

__all__ = [
    "REQUIRED_FLAGS",
    "THREAD_FLAGS",
    "TUNING_FLAGS",
    "available",
    "cache_dir",
    "cmul_modes",
    "load_library",
    "last_compile_seconds",
    "CJitLibrary",
]

#: Flags every build needs: bit identity depends on ``-ffp-contract=off``,
#: vectorization of the multirow kernels on ``-fopenmp-simd``.
REQUIRED_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fopenmp-simd")

#: Host threads for the kernels' outer loops: best effort, dropped when
#: the toolchain has no OpenMP runtime (the kernels then run serially).
THREAD_FLAGS = ("-fopenmp",)

#: Host tuning: best effort, dropped when the toolchain rejects them.
TUNING_FLAGS = ("-march=native", "-mprefer-vector-width=512")

_lock = threading.Lock()
_compiler: list[str] | None | bool = False  # False = not probed yet
_probe_lib: ctypes.CDLL | None | bool = False
_modes: dict[str, str] | None = None
_libraries: dict[str, "CJitLibrary"] = {}  # C scalar type -> library
_compile_seconds: float = 0.0

_PROBE_SRC = """\
#include <math.h>
void probe_f(const float* a, const float* b, float* fma_out,
             float* naive_out, long n) {
    for (long i = 0; i < n; i++) {
        const float ar = a[2*i], ai = a[2*i+1];
        const float br = b[2*i], bi = b[2*i+1];
        fma_out[2*i]     = fmaf(ar, br, -(ai * bi));
        fma_out[2*i+1]   = fmaf(ar, bi, ai * br);
        naive_out[2*i]   = ar * br - ai * bi;
        naive_out[2*i+1] = ar * bi + ai * br;
    }
}
void probe_d(const double* a, const double* b, double* fma_out,
             double* naive_out, long n) {
    for (long i = 0; i < n; i++) {
        const double ar = a[2*i], ai = a[2*i+1];
        const double br = b[2*i], bi = b[2*i+1];
        fma_out[2*i]     = fma(ar, br, -(ai * bi));
        fma_out[2*i+1]   = fma(ar, bi, ai * br);
        naive_out[2*i]   = ar * br - ai * bi;
        naive_out[2*i+1] = ar * bi + ai * br;
    }
}
"""


def cache_dir() -> Path:
    """The on-disk library cache (``$REPRO_JIT_CACHE`` overrides)."""
    env = os.environ.get("REPRO_JIT_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    return Path(tempfile.gettempdir()) / f"repro-jit-{uid}"


def _find_compiler() -> list[str] | None:
    global _compiler
    with _lock:
        if _compiler is not False:
            return _compiler
    found = None
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            found = [path]
            break
    with _lock:
        _compiler = found
    return found


def _flag_sets() -> list[list[str]]:
    """Flag lists to try in order: both optional lists, then fewer.

    The tuning list is dropped before the threads list, which is worth
    more: a toolchain that rejects ``-march=native`` still gets threaded
    kernels.
    """
    required = list(REQUIRED_FLAGS)
    threads, tuning = list(THREAD_FLAGS), list(TUNING_FLAGS)
    return [
        required + threads + tuning,
        required + threads,
        required + tuning,
        required,
    ]


def _library_path(source: str, tag: str, compiler: list[str], flags) -> Path:
    """Where the library ``compiler`` builds from ``source`` with ``flags``
    is cached: the name hashes all three, so a library built with other
    flags (or another compiler) is another file."""
    key = "\0".join([*compiler, *flags, source])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_dir() / f"{tag}-{digest}.so"


def _build(source: str, tag: str) -> ctypes.CDLL:
    """Compile ``source`` with the first flag set that builds, and load it.

    Each flag set's library is cached under its own name, and a set the
    toolchain rejected leaves a ``.failed`` file there (the compiler's
    message), so later processes neither retry it nor mistake a fallback
    build for a full one.  Deleting the cache retries every set.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    # Every flag set compiles the one source file into the one scratch
    # output; only the finished library is named by its flags.
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    c_path = cache_dir() / f"{tag}-{digest}.c"
    tmp = cache_dir() / f"{tag}-{digest}.{os.getpid()}.so.tmp"
    base = ["-fPIC", "-shared", str(c_path), "-o", str(tmp), "-lm"]
    errors = []
    for flags in _flag_sets():
        so_path = _library_path(source, tag, compiler, flags)
        failed = so_path.with_suffix(".failed")
        if not so_path.exists():
            if failed.exists():
                errors.append(failed.read_text())
                continue
            c_path.parent.mkdir(parents=True, exist_ok=True)
            c_path.write_text(source)
            result = subprocess.run(
                compiler + flags + base, capture_output=True, text=True
            )
            if result.returncode != 0:
                tmp.unlink(missing_ok=True)
                failed.write_text(result.stderr)
                errors.append(result.stderr)
                continue
            os.replace(tmp, so_path)  # atomic: concurrent builders converge
        return ctypes.CDLL(str(so_path))
    raise RuntimeError(f"cjit compile failed: {errors[-1][:2000]}")


def _probe_library() -> ctypes.CDLL | None:
    global _probe_lib
    with _lock:
        if _probe_lib is not False:
            return _probe_lib
    try:
        lib = _build(_PROBE_SRC, "probe")
        for name in ("probe_f", "probe_d"):
            getattr(lib, name).argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long]
            getattr(lib, name).restype = None
    except Exception:
        lib = None
    with _lock:
        _probe_lib = lib
    return lib


def available() -> bool:
    """True when a working C toolchain compiled and loaded the probe."""
    return _probe_library() is not None


def cmul_modes() -> dict[str, str]:
    """NumPy's complex-multiply form per scalar type: ``"fma"``/``"naive"``.

    Compares NumPy's own complex product against both candidate forms
    computed by the probe library; the form that reproduces NumPy
    *bitwise* on every sample wins (``"naive"`` when neither does — the
    emitted kernels are then ulp-bounded rather than bit-identical).
    """
    global _modes
    with _lock:
        if _modes is not None:
            return _modes
    lib = _probe_library()
    modes: dict[str, str] = {}
    rng = np.random.default_rng(20080815)
    for key, cdt, rdt, fn in (
        ("float", np.complex64, np.float32, "probe_f"),
        ("double", np.complex128, np.float64, "probe_d"),
    ):
        if lib is None:
            modes[key] = "naive"
            continue
        n = 4096
        a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(cdt)
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(cdt)
        ref = (a * b).view(rdt)
        fma_out = np.empty(2 * n, rdt)
        naive_out = np.empty(2 * n, rdt)
        getattr(lib, fn)(
            a.ctypes.data, b.ctypes.data, fma_out.ctypes.data,
            naive_out.ctypes.data, n,
        )
        if np.array_equal(fma_out, ref):
            modes[key] = "fma"
        elif np.array_equal(naive_out, ref):
            modes[key] = "naive"
        else:
            modes[key] = "naive"
    with _lock:
        _modes = modes
    return modes


def _ctype(real_dtype) -> str:
    return {"float32": "float", "float64": "double"}[np.dtype(real_dtype).name]


class CJitLibrary:
    """The bound kernels of one precision.

    ``kernels`` holds one dict per kernel family —
    ``kernels["multirow_a"][radix]``, ``kernels["multirow_b"][radix]``,
    ``kernels["step5"][nx]``.  Array arguments are ``c_void_p``
    addresses of C-contiguous ``real_dtype`` data; the caller checks the
    arrays behind them.
    """

    def __init__(self, lib: ctypes.CDLL, real_dtype):
        self._lib = lib
        ctype = _ctype(real_dtype)
        suffix = ctype[0]
        ptr = ctypes.c_void_p
        scalar = ctypes.c_float if ctype == "float" else ctypes.c_double
        mr_a: dict[int, object] = {}
        mr_b: dict[int, object] = {}
        s5: dict[int, object] = {}
        nthreads = ctypes.c_int
        for radix in emit.CODELET_RADICES:
            fa = getattr(lib, f"mr_a_{radix}_{suffix}")
            fa.argtypes = [ptr] * 4 + [ctypes.c_long] * 4 + [scalar, nthreads]
            fa.restype = None
            mr_a[radix] = fa
            fb = getattr(lib, f"mr_b_{radix}_{suffix}")
            fb.argtypes = [ptr] * 3 + [ctypes.c_long] * 4 + [scalar, nthreads]
            fb.restype = None
            mr_b[radix] = fb
        for nx in emit.STEP5_SIZES:
            fs = getattr(lib, f"s5_{nx}_{suffix}")
            fs.argtypes = [ptr] * 3 + [ctypes.c_long, scalar, scalar, nthreads]
            fs.restype = None
            s5[nx] = fs
        self.kernels: dict[str, dict[int, object]] = {
            "multirow_a": mr_a,
            "multirow_b": mr_b,
            "step5": s5,
        }


def load_library(real_dtype) -> CJitLibrary:
    """The process-wide kernel library for ``real_dtype`` (float32/float64).

    Each precision is built on its first use and cached for the life of
    the process.  Raises ``RuntimeError`` when no toolchain is available
    — callers are expected to have consulted :func:`available` at
    backend resolution.
    """
    global _compile_seconds
    ctype = _ctype(real_dtype)
    with _lock:
        if ctype in _libraries:
            return _libraries[ctype]
    import time

    t0 = time.perf_counter()
    source = emit.c_module(ctype, cmul_modes()[ctype])
    built = CJitLibrary(_build(source, f"kernels-{ctype}"), real_dtype)
    wall = time.perf_counter() - t0
    with _lock:
        if ctype not in _libraries:
            _libraries[ctype] = built
            _compile_seconds += wall
        return _libraries[ctype]


def last_compile_seconds() -> float:
    """Total wall seconds :func:`load_library` spent building in this process.

    The sum over every precision built so far (0.0 before the first
    build); a library found in the on-disk cache adds only its load
    time.
    """
    with _lock:
        return _compile_seconds
