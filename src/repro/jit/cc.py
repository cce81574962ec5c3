"""Self-hosted C backend: runtime compilation, caching and binding.

The compiled backend needs no package beyond NumPy, only a C toolchain
— every manylinux build box, CI runner and HPC login node ships one.
This module turns the emitted kernel source
(:func:`repro.jit.emit.c_module`) into a loadable shared library:

1. **Probe** the running NumPy's complex-multiply semantics.  NumPy's
   SIMD complex product contracts to FMA form on FMA hardware; a tiny
   support library computes both candidate forms and the emitter is
   told which one NumPy actually used, so the main kernels reproduce
   the reference bit-for-bit where the hardware allows (DESIGN.md §18).
   The same always-built unit carries the host request path's two byte
   codecs (:class:`SupportUnit`): a strict base64 decoder that writes
   straight into a grid, and zlib's CRC-32.
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
    "support",
    "SupportUnit",
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
_support: "SupportUnit | None | bool" = False
_modes: dict[str, str] | None = None
_libraries: dict[str, "CJitLibrary"] = {}  # C scalar type -> library
_compile_seconds: float = 0.0

_B64_ALPHABET = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)


def _c_table(name: str, ctype: str, values: list[int], fmt: str, per_line: int) -> str:
    rows = [
        ", ".join(fmt.format(v) for v in values[i : i + per_line])
        for i in range(0, len(values), per_line)
    ]
    body = ",\n    ".join(rows)
    return f"static const {ctype} {name}[{len(values)}] = {{\n    {body}\n}};\n"


def _b64_values() -> list[int]:
    """Each byte's base64 digit value; 0xFF for every other byte ('=' too)."""
    values = [0xFF] * 256
    for digit, char in enumerate(_B64_ALPHABET):
        values[char] = digit
    return values


def _crc_table() -> list[int]:
    """zlib's byte table for the reflected CRC-32 polynomial 0xEDB88320."""
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        table.append(c)
    return table


# Both codecs read only const tables, so concurrent calls (ctypes drops
# the GIL for each) share nothing mutable.
_CODECS_SRC = (
    "#include <stddef.h>\n"
    + _c_table("B64_VALUE", "unsigned char", _b64_values(), "{:3d}", 16)
    + _c_table("CRC_TABLE", "unsigned int", _crc_table(), "0x{:08x}", 6)
    + r"""
/* Strict base64: n % 4 == 0, digits A-Z a-z 0-9 + /, '=' only as the
   last one or two characters, and exactly out_len decoded bytes.
   Returns 1 with dst filled, or 0 (dst then holds garbage).  Unused low
   bits of a padded last digit are ignored, as binascii ignores them. */
int repro_b64decode_into(const unsigned char* src, size_t n,
                         unsigned char* dst, size_t out_len) {
    if (n % 4 != 0) return 0;
    if (n == 0) return out_len == 0;
    const size_t pad = src[n - 1] != '=' ? 0 : src[n - 2] != '=' ? 1 : 2;
    if (n / 4 * 3 - pad != out_len) return 0;
    const size_t full = n / 4 - (pad != 0);
    unsigned bad = 0;
    for (size_t i = 0; i < full; i++) {
        const unsigned char* s = src + 4 * i;
        const unsigned a = B64_VALUE[s[0]], b = B64_VALUE[s[1]];
        const unsigned c = B64_VALUE[s[2]], d = B64_VALUE[s[3]];
        bad |= a | b | c | d;
        const unsigned v = a << 18 | b << 12 | c << 6 | d;
        dst[3 * i] = (unsigned char)(v >> 16);
        dst[3 * i + 1] = (unsigned char)(v >> 8);
        dst[3 * i + 2] = (unsigned char)v;
    }
    if (pad) {
        const unsigned char* s = src + n - 4;
        const unsigned a = B64_VALUE[s[0]], b = B64_VALUE[s[1]];
        const unsigned c = pad == 2 ? 0 : B64_VALUE[s[2]];
        bad |= a | b | c;
        const unsigned v = a << 18 | b << 12 | c << 6;
        dst[3 * full] = (unsigned char)(v >> 16);
        if (pad == 1) dst[3 * full + 1] = (unsigned char)(v >> 8);
    }
    return !(bad & 0x80);
}

#if defined(__PCLMUL__)
typedef long long v2di __attribute__((vector_size(16)));
#define CLMUL(a, b, imm) __builtin_ia32_pclmulqdq128((a), (b), (imm))

static inline v2di load16(const unsigned char* p) {
    v2di v;
    __builtin_memcpy(&v, p, 16);
    return v;
}

/* Fold n bytes (n >= 64, n % 16 == 0) into the bit-reflected CRC state
   with carry-less multiplies: Gopal et al., "Fast CRC Computation for
   Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), and
   its constants for the CRC-32 polynomial.  Four 128-bit lanes fold 64
   bytes a step, then fold into one lane, 16 bytes a step; the last 128
   bits fold to 64 and a Barrett reduction takes them to 32.  Vector
   builtins stand in for the intrinsics: <immintrin.h> alone would
   double this unit's compile time. */
static unsigned fold(const unsigned char* p, size_t n, unsigned crc) {
    const v2di k1k2 = {0x0154442bd4LL, 0x01c6e41596LL};
    const v2di k3k4 = {0x01751997d0LL, 0x00ccaa009eLL};
    const v2di k5 = {0x0163cd6124LL, 0};
    const v2di poly = {0x01db710641LL, 0x01f7011641LL};  /* P, mu */
    const v2di low32 = {0xffffffffLL, 0xffffffffLL};
    v2di x1 = load16(p), x2 = load16(p + 16);
    v2di x3 = load16(p + 32), x4 = load16(p + 48);
    x1 ^= (v2di){(long long)crc, 0};
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x1 = CLMUL(x1, k1k2, 0x00) ^ CLMUL(x1, k1k2, 0x11) ^ load16(p);
        x2 = CLMUL(x2, k1k2, 0x00) ^ CLMUL(x2, k1k2, 0x11) ^ load16(p + 16);
        x3 = CLMUL(x3, k1k2, 0x00) ^ CLMUL(x3, k1k2, 0x11) ^ load16(p + 32);
        x4 = CLMUL(x4, k1k2, 0x00) ^ CLMUL(x4, k1k2, 0x11) ^ load16(p + 48);
    }
    x1 = CLMUL(x1, k3k4, 0x00) ^ CLMUL(x1, k3k4, 0x11) ^ x2;
    x1 = CLMUL(x1, k3k4, 0x00) ^ CLMUL(x1, k3k4, 0x11) ^ x3;
    x1 = CLMUL(x1, k3k4, 0x00) ^ CLMUL(x1, k3k4, 0x11) ^ x4;
    for (; n >= 16; p += 16, n -= 16)
        x1 = CLMUL(x1, k3k4, 0x00) ^ CLMUL(x1, k3k4, 0x11) ^ load16(p);
    x1 = CLMUL(x1, k3k4, 0x10) ^ (v2di){x1[1], 0};
    const unsigned long long lo = (unsigned long long)x1[0];
    const unsigned long long hi = (unsigned long long)x1[1];
    const v2di down32 = {(long long)(lo >> 32 | hi << 32), (long long)(hi >> 32)};
    x1 = CLMUL(x1 & low32, k5, 0x00) ^ down32;
    v2di t = CLMUL(x1 & low32, poly, 0x10);
    x1 ^= CLMUL(t & low32, poly, 0x00);
    return (unsigned)((unsigned long long)x1[0] >> 32);
}

int repro_crc32_folds(void) { return 1; }
#else
int repro_crc32_folds(void) { return 0; }
#endif

/* zlib's crc32(crc, p, n): the fold takes every whole 16 bytes of a
   buffer of 64 or more, the byte table the rest. */
unsigned repro_crc32(const unsigned char* p, size_t n, unsigned crc) {
    crc = ~crc;
#if defined(__PCLMUL__)
    if (n >= 64) {
        const size_t whole = n & ~(size_t)15;
        crc = fold(p, whole, crc);
        p += whole;
        n -= whole;
    }
#endif
    for (; n; n--) crc = CRC_TABLE[(crc ^ *p++) & 0xff] ^ (crc >> 8);
    return ~crc;
}
"""
)

_SUPPORT_SRC = """\
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
""" + _CODECS_SRC


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


#: The UTF-8 bytes of a ``str``, in place.  For a compact ASCII string
#: (every ASCII ``str`` CPython builds) they are the string's own data,
#: so the call neither copies nor allocates.
_str_utf8 = ctypes.pythonapi.PyUnicode_AsUTF8AndSize
_str_utf8.argtypes = [ctypes.py_object, ctypes.c_void_p]
_str_utf8.restype = ctypes.c_void_p


class SupportUnit:
    """The always-built support library, bound.

    ``probe_f`` / ``probe_d`` are the complex-multiply probe
    (:func:`cmul_modes`), raw ctypes functions over addresses.  The two
    codecs take Python objects and check them before any address
    reaches C.  ``crc32_folds`` is True when the unit was built with the
    PCLMULQDQ fold; without it :meth:`crc32` runs a byte table, which is
    slower than zlib's own tables.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        ptr, size = ctypes.c_void_p, ctypes.c_size_t
        for name in ("probe_f", "probe_d"):
            getattr(lib, name).argtypes = [ptr] * 4 + [ctypes.c_long]
            getattr(lib, name).restype = None
        self.probe_f, self.probe_d = lib.probe_f, lib.probe_d
        self._b64decode = lib.repro_b64decode_into
        self._b64decode.argtypes = [ptr, size, ptr, size]
        self._b64decode.restype = ctypes.c_int
        self._crc32 = lib.repro_crc32
        self._crc32.argtypes = [ptr, size, ctypes.c_uint]
        self._crc32.restype = ctypes.c_uint
        lib.repro_crc32_folds.argtypes = []
        lib.repro_crc32_folds.restype = ctypes.c_int
        self.crc32_folds = bool(lib.repro_crc32_folds())

    def b64decode_into(self, text: str, out: np.ndarray) -> bool:
        """Decode strict base64 ``text`` into ``out``'s bytes.

        True when ``text`` decodes to exactly ``out.nbytes`` bytes, now
        in ``out``; False, with ``out`` holding garbage, for anything
        else: a character outside ``A–Z a–z 0–9 + /``, ``=`` other than
        as the last one or two characters, a length ≠ 0 mod 4, or
        another decoded length.  The text is read in place and the GIL
        is released for the decode.
        """
        if not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("out must be a writeable C-contiguous array")
        if not text.isascii():
            return False
        src = _str_utf8(text, None)
        return src is not None and bool(
            self._b64decode(src, len(text), out.ctypes.data, out.nbytes)
        )

    def crc32(self, a: np.ndarray, value: int = 0) -> int:
        """``zlib.crc32(a, value)`` of C-contiguous ``a``'s bytes."""
        if not a.flags.c_contiguous:
            raise ValueError("a must be C-contiguous")
        return self._crc32(a.ctypes.data, a.nbytes, value)


def support() -> SupportUnit | None:
    """The support unit, built on first use; ``None`` without a toolchain."""
    global _support
    unit = _support
    if unit is not False:
        return unit
    with _lock:
        if _support is not False:
            return _support
    try:
        unit = SupportUnit(_build(_SUPPORT_SRC, "support"))
    except Exception:
        unit = None
    with _lock:
        _support = unit
    return unit


def available() -> bool:
    """True when a working C toolchain compiled and loaded the support unit."""
    return support() is not None


def cmul_modes() -> dict[str, str]:
    """NumPy's complex-multiply form per scalar type: ``"fma"``/``"naive"``.

    Compares NumPy's own complex product against both candidate forms
    computed by the support unit's probe; the form that reproduces NumPy
    *bitwise* on every sample wins (``"naive"`` when neither does — the
    emitted kernels are then ulp-bounded rather than bit-identical).
    """
    global _modes
    with _lock:
        if _modes is not None:
            return _modes
    lib = support()
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
