"""JIT-compiled hot path vs the pooled NumPy reference.

The tentpole acceptance experiment for the :mod:`repro.jit` backend: the
same seeded 64 x 64^3 single-precision workload the host-path benchmark
uses (``bench_hostpath.py``) runs through three lenses:

* **per-kernel microbenches** — each of the five compiled pipeline
  calls timed alone on the 64^3 geometry, so a regression is
  attributable to one kernel rather than "the transform got slower";
* **plan core** — the bare five-step execute, pooled NumPy vs
  compiled, interleaved best-of-N (``benchmarks/harness.py``, the same
  discipline bench_hostpath uses; that benchmark owns the unpooled vs
  pooled NumPy ratio).  The headline gate lives here: compiled >= 3x
  over the pooled NumPy path.  Beside it, ``threads_speedup``: the
  compiled transform at 128^3 on every core over the same transform on
  one thread, paired in one process (the OpenMP split of the kernels'
  outer loops, DESIGN.md §18);
* **serve mix** — the full ``FFTServer`` workload, pooled NumPy vs
  compiled, plus compiled ``n_workers=1`` vs ``n_workers=4``.  The
  parallel gate (>= 2x) only applies on hosts with >= 4 cores — the
  GIL-released kernels cannot scale on a single-core container, and the
  payload records ``cpu_count`` so a reader knows which regime produced
  the numbers.

Equivalence is checked alongside every timing: cjit must match NumPy
bit-for-bit (its complex multiply is probed against the hardware).

CI smoke::

    python benchmarks/bench_jit.py --quick --check-against BENCH_jit.json

re-runs the quick workload and fails (exit 1) when the measured
core-speedup or threads-speedup ratio regresses below
``REGRESSION_TOLERANCE`` (80%) of the committed baseline (capped at its
bar) — ratios, not absolute times, so the gate is self-normalizing
across machines.  The threads gate is skipped, and says so, on a
one-core host, where there is nothing to split.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):  # CLI: python benchmarks/bench_jit.py
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from benchmarks.harness import best_of_interleaved, time_split
from repro import jit
from repro.core.five_step import FiveStepPlan, split_axis
from repro.core.workspace import Workspace
from repro.serve import CoalescePolicy, FFTRequest, FFTServer

#: Headline gate: compiled plan core vs the pooled NumPy plan core.
CORE_SPEEDUP_BAR = 3.0
#: Parallel gate: FFTServer(n_workers=4) vs n_workers=1, compiled.
PARALLEL_BAR = 2.0
PARALLEL_WORKERS = 4
#: Threads gate: compiled transform on every core vs on one thread.
THREADS_SPEEDUP_BAR = 1.6
#: The grid the threads ratio is taken at: large enough that a
#: transform (~17 ms on one core) dwarfs thread start-up.
THREADS_SHAPE = (128, 128, 128)
#: Interleaved rounds of the threads ratio (two transforms each).
THREADS_ROUNDS = 8
#: CI gate: current quick-mode ratios must be >= committed * this.
REGRESSION_TOLERANCE = 0.8

FULL = {"shape": (64, 64, 64), "entries": 64, "rounds": 5, "core_reps": 4}
QUICK = {"shape": (64, 64, 64), "entries": 16, "rounds": 4, "core_reps": 2}


def _workload(shape, entries):
    rng = np.random.default_rng(20080815)
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        for _ in range(entries)
    ]


def _equivalent(jitted: np.ndarray, ref: np.ndarray) -> bool:
    """The backend contract: bit-identity with the NumPy reference."""
    return bool(np.array_equal(jitted.view(np.float32), ref.view(np.float32)))


def _compiled_for(shape, backend):
    """A warm CompiledFiveStep + work buffers for kernel microbenches."""
    rz1, rz2 = split_axis(shape[0])
    ry1, ry2 = split_axis(shape[1])
    compiled, _ = jit.compile_plan(
        backend, shape, "single", rz1, rz2, ry1, ry2
    )
    return compiled, (rz2, rz1, ry2, ry1)


def _kernel_microbench(shape, backend, reps=20) -> dict:
    """Best wall ms of each pipeline call alone, on the full grid, on one
    thread and on every core."""
    compiled, (a, b, c, d) = _compiled_for(shape, backend)
    nx = shape[2]
    x = _workload(shape, 1)[0]
    out = np.empty_like(x)
    work = np.empty_like(x)
    xf = x.reshape(-1).view(np.float32)
    wf = work.reshape(-1).view(np.float32)
    of = out.reshape(-1).view(np.float32)
    k = compiled._kernels
    sgn = np.float32(1.0)
    one = np.float32(1.0)
    ctab = compiled._ctab
    rows = a * b * c * d
    calls = {
        f"mr_a_{a} (Z half 1)": lambda t: k["multirow_a"][a](
            xf, wf, compiled._wz, ctab, b, c, d, nx, sgn, t
        ),
        f"mr_b_{b} (Z half 2)": lambda t: k["multirow_b"][b](
            wf, of, ctab, c, d, a, nx, sgn, t
        ),
        f"mr_a_{c} (Y half 1)": lambda t: k["multirow_a"][c](
            of, wf, compiled._wy, ctab, d, b, a, nx, sgn, t
        ),
        f"mr_b_{d} (Y half 2)": lambda t: k["multirow_b"][d](
            wf, of, ctab, b, a, c, nx, sgn, t
        ),
        f"s5_{nx} (X four-step)": lambda t: k["step5"][nx](
            of, compiled._w5, ctab, rows, sgn, one, t
        ),
    }
    best = {}
    for name, fn in calls.items():
        samplers = {
            f"threads={t}": (lambda t=t: fn(t))
            for t in sorted({1, jit.host_cores()})
        }
        ms = best_of_interleaved(samplers, reps)
        best[name] = {label: s * 1e3 for label, s in ms.items()}
    return best


def _threads_speedup(backend) -> dict:
    """The compiled transform on every core over one thread, interleaved.

    Both configurations call the same compiled plan with the same
    buffers; only the ``threads`` argument differs, so the ratio is the
    OpenMP split alone.  The outputs must be bitwise equal.
    """
    shape = THREADS_SHAPE
    compiled, _ = _compiled_for(shape, backend)
    x = _workload(shape, 1)[0]
    work = np.empty_like(x)
    cores = jit.host_cores()
    outs = {1: np.empty_like(x), cores: np.empty_like(x)}
    samplers = {
        t: (lambda t=t: compiled.run(x, outs[t], work, threads=t)) for t in outs
    }
    best = best_of_interleaved(samplers, THREADS_ROUNDS, 2)
    return {
        "shape": list(shape),
        "threads": cores,
        "threads_1_ms": best[1] * 1e3,
        "threads_cores_ms": best[cores] * 1e3,
        "threads_speedup": best[1] / best[cores],
        "threads_equivalent": _equivalent(outs[cores], outs[1]),
    }


def _plan_core(shape, backend, rounds, reps) -> dict:
    """Pooled NumPy vs compiled, interleaved best-of-N."""
    x = _workload(shape, 1)[0]
    plan_np = FiveStepPlan(shape, precision="single")
    plan_jit = FiveStepPlan(shape, precision="single", backend=backend)
    plan_jit.ensure_compiled()
    ws = Workspace()
    ws_jit = Workspace()
    out = np.empty_like(x)
    out_jit = np.empty_like(x)

    samplers = {
        "numpy_pooled": lambda: plan_np.execute(x, workspace=ws, out=out),
        "jit": lambda: plan_jit.execute(x, workspace=ws_jit, out=out_jit),
    }
    best = best_of_interleaved(samplers, rounds, reps)
    equivalent = _equivalent(plan_jit.execute(x), plan_np.execute(x))
    return {
        "backend": plan_jit.backend,
        "numpy_pooled_ms": best["numpy_pooled"] * 1e3,
        "jit_ms": best["jit"] * 1e3,
        "speedup_vs_pooled": best["numpy_pooled"] / best["jit"],
        "equivalent": equivalent,
        **_threads_speedup(backend),
    }


def _time_splits(shape, backend, rounds, reps) -> dict:
    """Interpreter-vs-backend split, pooled NumPy and compiled.

    Same harness and definitions as ``bench_hostpath.py``'s split, so
    the two JSON files are directly comparable.
    """
    from repro.core.api import GpuFFT3D

    x = _workload(shape, 1)[0]
    splits = {}
    for name, be in (("numpy_pooled", "numpy"), ("jit", backend)):
        engine = GpuFFT3D(shape, precision="single", backend=be)
        try:
            plan = engine._plan
            plan.ensure_compiled()
            ws = engine.workspace
            out = np.empty_like(x)
            splits[name] = time_split(
                lambda: engine.forward(x),
                lambda: plan.execute(x, workspace=ws, out=out),
                rounds=rounds,
                reps=reps,
            )
        finally:
            engine.close()
    return splits


def _serve(backend, n_workers, xs, rounds):
    """Best-of-N server wall seconds + last round's spectra."""
    srv = FFTServer(
        start=False,
        n_workers=n_workers,
        backend=backend,
        max_depth=4096,
        coalesce=CoalescePolicy(max_batch=4, max_wait_s=0.0),
    )
    try:
        outs = None
        best = None
        for r in range(rounds + 1):  # +1 untimed warm-up round
            futs = [srv.submit(FFTRequest(x)) for x in xs]
            t0 = time.perf_counter()
            srv.run_pending()
            wall = time.perf_counter() - t0
            outs = [f.result(timeout=120) for f in futs]
            if r > 0:
                best = wall if best is None else min(best, wall)
        return best, outs
    finally:
        srv.close()


def _serve_mix(shape, entries, backend, rounds) -> dict:
    """The full serve-mix: pooled NumPy vs compiled, then 1 vs 4 workers."""
    xs = _workload(shape, entries)
    np_wall, np_outs = _serve("numpy", 1, xs, rounds)
    jit_wall, jit_outs = _serve(backend, 1, xs, rounds)
    par_wall, par_outs = _serve(backend, PARALLEL_WORKERS, xs, rounds)
    equivalent = all(
        _equivalent(j, r) for j, r in zip(jit_outs, np_outs)
    ) and all(_equivalent(p, r) for p, r in zip(par_outs, np_outs))
    return {
        "entries": entries,
        "numpy_pooled_wall_s": np_wall,
        "jit_wall_s": jit_wall,
        "jit_parallel_wall_s": par_wall,
        "n_workers": PARALLEL_WORKERS,
        "speedup_vs_pooled": np_wall / jit_wall,
        "parallel_speedup": jit_wall / par_wall,
        "equivalent": equivalent,
    }


def run_section(cfg, backend) -> dict:
    shape = cfg["shape"]
    section = {
        "shape": list(shape),
        "plan_core": _plan_core(
            shape, backend, cfg["rounds"], cfg["core_reps"]
        ),
        "serve_mix": _serve_mix(shape, cfg["entries"], backend, 2),
    }
    return section


def build_payload(quick_only: bool = False) -> dict:
    resolved = jit.resolve_backend("auto")
    payload = {
        "backends": {
            "available": list(jit.available_backends()),
            "resolved": resolved,
        },
        "cpu_count": os.cpu_count(),
        "host_cores": jit.host_cores(),
        "core_speedup_bar": CORE_SPEEDUP_BAR,
        "threads_speedup_bar": THREADS_SPEEDUP_BAR,
        "parallel_bar": PARALLEL_BAR,
        "parallel_gate_applies": (os.cpu_count() or 1) >= PARALLEL_WORKERS,
        "regression_tolerance": REGRESSION_TOLERANCE,
    }
    if resolved == "cjit":
        from repro.jit import cc

        payload["backends"]["cmul_modes"] = cc.cmul_modes()
    if resolved == "numpy":
        payload["note"] = (
            "no compiled backend on this machine; speedup sections omitted"
        )
        return payload
    payload["quick"] = run_section(QUICK, resolved)
    if not quick_only:
        payload["full"] = run_section(FULL, resolved)
        payload["full"]["kernels_ms"] = _kernel_microbench(
            FULL["shape"], resolved
        )
        payload["full"]["time_split"] = _time_splits(
            FULL["shape"], resolved, FULL["rounds"], FULL["core_reps"]
        )
    return payload


def _fmt(payload: dict) -> str:
    lines = [
        f"backends: {payload['backends']['available']} "
        f"-> {payload['backends']['resolved']}, "
        f"cpu_count={payload['cpu_count']}"
    ]
    if "note" in payload:
        lines.append(payload["note"])
        return "\n".join(lines)
    for name in ("quick", "full"):
        section = payload.get(name)
        if section is None:
            continue
        core, mix = section["plan_core"], section["serve_mix"]
        lines += [
            f"{name}: {section['shape']}",
            f"  plan core: pooled {core['numpy_pooled_ms']:.2f} ms, "
            f"jit {core['jit_ms']:.2f} ms "
            f"({core['speedup_vs_pooled']:.2f}x vs pooled)",
            f"  threads at {core['shape']}: 1 thread "
            f"{core['threads_1_ms']:.2f} ms, {core['threads']} threads "
            f"{core['threads_cores_ms']:.2f} ms "
            f"({core['threads_speedup']:.2f}x)",
            f"  serve mix: {mix['entries']} entries, "
            f"numpy {mix['numpy_pooled_wall_s'] * 1e3:.1f} ms, "
            f"jit {mix['jit_wall_s'] * 1e3:.1f} ms "
            f"({mix['speedup_vs_pooled']:.2f}x), "
            f"{mix['n_workers']} workers "
            f"{mix['jit_parallel_wall_s'] * 1e3:.1f} ms "
            f"({mix['parallel_speedup']:.2f}x)",
            f"  equivalent: core={core['equivalent']} "
            f"threads={core['threads_equivalent']} "
            f"mix={mix['equivalent']}",
        ]
        if "kernels_ms" in section:
            for kname, by_threads in section["kernels_ms"].items():
                cols = ", ".join(f"{t} {ms:.3f} ms" for t, ms in by_threads.items())
                lines.append(f"    {kname}: {cols}")
        if "time_split" in section:
            for sname, split in section["time_split"].items():
                lines.append(
                    f"  split {sname}: total {split['total_ms']:.2f} ms = "
                    f"backend {split['backend_ms']:.2f} + "
                    f"interp {split['interpreter_ms']:.2f} "
                    f"({split['interpreter_fraction']:.0%})"
                )
    return "\n".join(lines)


def test_jit_speedup(benchmark, show):
    """Compiled hot path: >= 3x over pooled NumPy at the plan core."""
    import pytest

    from benchmarks.conftest import run_once, write_bench_json

    if jit.resolve_backend("auto") == "numpy":
        pytest.skip("no compiled backend available on this machine")

    payload = run_once(benchmark, build_payload)
    path = write_bench_json("jit", payload)
    show("JIT hot path vs pooled NumPy", _fmt(payload) + f"\njson: {path}")

    full = payload["full"]
    assert full["plan_core"]["speedup_vs_pooled"] >= CORE_SPEEDUP_BAR
    assert full["plan_core"]["equivalent"]
    assert full["plan_core"]["threads_equivalent"]
    if payload["host_cores"] > 1:
        assert full["plan_core"]["threads_speedup"] >= THREADS_SPEEDUP_BAR
    assert full["serve_mix"]["equivalent"]
    if payload["parallel_gate_applies"]:
        assert full["serve_mix"]["parallel_speedup"] >= PARALLEL_BAR


def _gate(name, current, committed, bar) -> bool:
    """One ratio against ``min(committed, bar) * REGRESSION_TOLERANCE``.

    The reference is capped at the acceptance bar so a lucky committed
    run can't ratchet the floor above the contract.
    """
    floor = min(committed, bar) * REGRESSION_TOLERANCE
    ok = current >= floor
    print(
        f"plan_core.{name}: current {current:.2f}x vs committed "
        f"{committed:.2f}x (floor {floor:.2f}x) -> "
        f"{'ok' if ok else 'REGRESSION'}"
    )
    return ok


def _check_against(payload: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    if "quick" not in payload or "quick" not in baseline:
        print("no compiled backend in payload or baseline; nothing to gate")
        return 0
    failures = []
    core = payload["quick"]["plan_core"]
    committed = baseline["quick"]["plan_core"]
    if not _gate(
        "speedup_vs_pooled",
        core["speedup_vs_pooled"],
        committed["speedup_vs_pooled"],
        CORE_SPEEDUP_BAR,
    ):
        failures.append("speedup_vs_pooled")
    if payload["host_cores"] < 2:
        print("plan_core.threads_speedup: one core, nothing to split -> skipped")
    elif not _gate(
        "threads_speedup",
        core["threads_speedup"],
        # A baseline from before the threads gate: the bar alone.
        committed.get("threads_speedup", THREADS_SPEEDUP_BAR),
        THREADS_SPEEDUP_BAR,
    ):
        failures.append("threads_speedup")
    for key in ("equivalent", "threads_equivalent"):
        if not core[key]:
            print(f"plan_core.{key}: False -> REGRESSION")
            failures.append(key)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the small CI-smoke workload (no full section)",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        metavar="JSON",
        help="compare quick-mode speedup against a committed "
        "BENCH_jit.json; exit 1 on regression",
    )
    args = parser.parse_args(argv)

    payload = build_payload(quick_only=args.quick)
    print(_fmt(payload))

    if args.check_against is not None:
        return _check_against(payload, args.check_against)

    out = _ROOT / "BENCH_jit.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
