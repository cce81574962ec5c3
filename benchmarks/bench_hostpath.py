"""Workspace-pooled host path: plan-core speedup and parallel dispatch.

The host execution engine's acceptance experiment, on a seeded
single-precision workload (64 x 64^3 entries — one 256^3 grid's worth of
points, the paper's largest in-core problem):

* **plan core** — the unpooled reference ``FiveStepPlan.execute(x)``
  (every five-step stage allocates fresh intermediates) against the
  pooled ``execute(x, workspace=, out=)``: all intermediates come from a
  :class:`~repro.core.workspace.Workspace` arena and the twiddle
  multiplies are fused into the transpose writes.  ``core_speedup`` is
  unpooled over pooled time.
* **server** — the workload through ``FFTServer`` with ``n_workers=1``
  (**pooled**) and ``n_workers=4`` (**pooled+parallel**: the engines
  behind the server's dispatch worker pool, compute capped at the
  host's core count).  ``speedup_parallel`` is pooled over
  pooled+parallel wall-clock.  Every spectrum must be bit-identical to
  the unpooled reference.

Acceptance: ``core_speedup >= 1.5`` with a 100% steady-state arena hit
rate.  Results land in ``BENCH_hostpath.json`` with a ``quick`` section
sized for the CI smoke gate::

    python benchmarks/bench_hostpath.py --quick --check-against BENCH_hostpath.json

re-runs the quick workload and fails (exit 1) when a measured speedup
regresses below ``REGRESSION_TOLERANCE`` of the committed baseline —
comparing speedup *ratios*, not absolute times, so the gate is
self-normalizing across machines.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):  # CLI: python benchmarks/bench_hostpath.py
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from repro.core.api import GpuFFT3D
from repro.core.five_step import FiveStepPlan
from repro.core.workspace import Workspace
from repro.serve import CoalescePolicy, FFTRequest, FFTServer

SPEEDUP_BAR = 1.5
N_WORKERS = 4
MAX_BATCH = 4
#: CI gate: current quick-mode speedup must be >= committed * this.
REGRESSION_TOLERANCE = 0.8

#: 64 x 64^3 complex64 = exactly one 256^3 grid of points.
FULL = {"shape": (64, 64, 64), "entries": 64, "rounds": 5}
QUICK = {"shape": (64, 64, 64), "entries": 16, "rounds": 4}


def _workload(shape, entries):
    rng = np.random.default_rng(20080815)
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        for _ in range(entries)
    ]


def _round(srv, xs):
    """One full pass of the workload through ``srv``; wall + spectra."""
    gc.collect()  # keep prior rounds' garbage out of the timing
    futs = [srv.submit(FFTRequest(x)) for x in xs]
    t0 = time.perf_counter()
    srv.run_pending()
    wall = time.perf_counter() - t0
    outs = [f.result(timeout=120) for f in futs]
    return wall, outs


#: (payload key, n_workers) for the two measured server configurations.
_CONFIGS = (("pooled", 1), ("pooled_parallel", N_WORKERS))


def _measure(xs, rounds):
    """Best-of-``rounds`` wall seconds per configuration, interleaved.

    Both servers stay alive and the timed rounds alternate between them
    (pooled, parallel, pooled, ...), so transient host interference —
    CPU steal on a shared box — lands on at most one round of each
    configuration and best-of-N discards it; back-to-back per-config
    runs would let one noisy stretch corrupt a whole configuration.  An
    untimed warm-up round per server populates engines, arenas and
    caches first (steady state is what the pooled path optimizes) and
    doubles as the bit-identity check against the unpooled reference.
    """
    plan = FiveStepPlan(xs[0].shape, precision="single")
    ref = [plan.execute(x) for x in xs]
    servers = {
        name: FFTServer(
            start=False,
            n_workers=n_workers,
            max_depth=4096,
            coalesce=CoalescePolicy(max_batch=MAX_BATCH, max_wait_s=0.0),
        )
        for name, n_workers in _CONFIGS
    }
    best: dict[str, float] = {}
    identical = True
    try:
        for srv in servers.values():  # warm-up + identity check
            _, outs = _round(srv, xs)
            identical = identical and all(
                np.array_equal(a, b) for a, b in zip(ref, outs)
            )
            del outs
        for _ in range(rounds):
            for name, srv in servers.items():
                wall, outs = _round(srv, xs)
                del outs
                best[name] = min(best.get(name, wall), wall)
    finally:
        for srv in servers.values():
            srv.close()
    return best, identical


def _steady_state(shape):
    """Arena behavior over 20 pooled executions after warm-up."""
    x = _workload(shape, 1)[0]
    plan = GpuFFT3D(shape, precision="single")
    try:
        plan.forward(x)
        before = plan.workspace.stats
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.take_snapshot()
        for _ in range(20):
            plan.forward(x)
        gc.collect()
        growth = tracemalloc.take_snapshot().compare_to(base, "lineno")
        tracemalloc.stop()
        after = plan.workspace.stats
    finally:
        plan.close()
    return {
        "miss_delta": after.misses - before.misses,
        "hits_delta": after.hits - before.hits,
        "live_buffers": after.live_buffers,
        "arena_bytes": after.bytes_allocated,
        "net_traced_bytes": sum(
            d.size_diff for d in growth if d.size_diff > 0
        ),
    }


def _plan_core(shape):
    """Per-transform core time, unpooled vs pooled, outside the server.

    Measured with the shared interleaved best-of-N harness
    (``benchmarks/harness.py``) so the numbers sit on the same footing
    as ``BENCH_jit.json``'s plan-core section.  ``seed_ms`` is the
    unpooled reference ``execute``, the allocate-per-step path every
    engine ran before the workspace arena existed.
    """
    from benchmarks.harness import best_of_interleaved

    x = _workload(shape, 1)[0]
    plan = FiveStepPlan(shape, precision="single")
    ws = Workspace()
    out = np.empty(shape, np.complex64)
    best = best_of_interleaved(
        {
            "seed": lambda: plan.execute(x),
            "pooled": lambda: plan.execute(x, workspace=ws, out=out),
        },
        rounds=4,
        reps=4,
    )
    return {
        "seed_ms": best["seed"] * 1e3,
        "pooled_ms": best["pooled"] * 1e3,
        "core_speedup": best["seed"] / best["pooled"],
    }


def _interpreter_backend_split(shape):
    """Interpreter-vs-backend decomposition of one pooled transform.

    Identical harness and definitions to ``BENCH_jit.json``'s
    ``time_split`` section (``benchmarks/harness.py``): ``backend`` is
    the bare plan execute, ``total`` the full ``GpuFFT3D.forward``, and
    the difference is interpreter-side dispatch a faster numeric core
    can never remove.
    """
    from benchmarks.harness import time_split

    x = _workload(shape, 1)[0]
    engine = GpuFFT3D(shape, precision="single")
    try:
        plan = engine._plan
        ws = engine.workspace
        out = np.empty(shape, np.complex64)
        return {
            "numpy_pooled": time_split(
                lambda: engine.forward(x),
                lambda: plan.execute(x, workspace=ws, out=out),
                rounds=4,
                reps=4,
            )
        }
    finally:
        engine.close()


def run_section(cfg) -> dict:
    """Plan core, then pooled / pooled+parallel over one workload size."""
    shape, entries, rounds = cfg["shape"], cfg["entries"], cfg["rounds"]
    xs = _workload(shape, entries)

    best, identical = _measure(xs, rounds)
    pooled_s = best["pooled"]
    par_s = best["pooled_parallel"]

    return {
        "shape": list(shape),
        "entries": entries,
        "total_points": entries * int(np.prod(shape)),
        "plan_core": _plan_core(shape),
        "pooled": {
            "wall_seconds": pooled_s,
            "per_entry_ms": pooled_s / entries * 1e3,
        },
        "pooled_parallel": {
            "wall_seconds": par_s,
            "per_entry_ms": par_s / entries * 1e3,
            "n_workers": N_WORKERS,
        },
        "speedup_parallel": pooled_s / par_s,
        "bit_identical": identical,
    }


def build_payload(quick_only: bool = False) -> dict:
    payload = {
        "speedup_bar": SPEEDUP_BAR,
        "n_workers": N_WORKERS,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "quick": run_section(QUICK),
    }
    if not quick_only:
        payload["full"] = run_section(FULL)
        payload["steady_state"] = _steady_state(FULL["shape"])
        payload["time_split"] = _interpreter_backend_split(FULL["shape"])
    return payload


def _fmt(section, name):
    core = section["plan_core"]
    return (
        f"{name}: {section['entries']} x {section['shape']} "
        f"({section['total_points'] / 1e6:.1f}M points)\n"
        f"  plan core:       {core['seed_ms']:8.2f} -> {core['pooled_ms']:.2f} ms "
        f"({core['core_speedup']:.2f}x)\n"
        f"  pooled:          {section['pooled']['wall_seconds'] * 1e3:8.1f} ms\n"
        f"  pooled+parallel: "
        f"{section['pooled_parallel']['wall_seconds'] * 1e3:8.1f} ms "
        f"({section['speedup_parallel']:.2f}x, "
        f"n_workers={section['pooled_parallel']['n_workers']})\n"
        f"  bit-identical:   {section['bit_identical']}"
    )


def test_hostpath_pooled_speedup(benchmark, show):
    """Pooled plan core: >= 1.5x over the unpooled path, bit-identical."""
    from benchmarks.conftest import run_once, write_bench_json

    payload = run_once(benchmark, build_payload)
    path = write_bench_json("hostpath", payload)

    full, quick = payload["full"], payload["quick"]
    steady = payload["steady_state"]
    show(
        "Workspace-pooled host path",
        _fmt(full, "full")
        + "\n"
        + _fmt(quick, "quick")
        + f"\nsteady state: {steady['miss_delta']} arena misses / "
        f"{steady['hits_delta']} hits over 20 runs, "
        f"{steady['arena_bytes'] / 1e6:.1f} MB arena\n"
        f"json: {path}",
    )

    # The acceptance bar: the pooled plan core >= 1.5x over unpooled.
    assert full["plan_core"]["core_speedup"] >= SPEEDUP_BAR
    # Pure optimization: every spectrum identical to the unpooled path.
    assert full["bit_identical"] and quick["bit_identical"]
    # Zero steady-state allocation: a warm arena never misses, and no
    # per-execution numpy allocation survives the loop.
    assert steady["miss_delta"] == 0
    assert steady["live_buffers"] == 0
    assert steady["net_traced_bytes"] < 1 << 20


def _check_against(payload: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    quick, committed_quick = payload["quick"], baseline["quick"]
    for metric, current, committed in (
        (
            "core_speedup",
            quick["plan_core"]["core_speedup"],
            committed_quick["plan_core"]["core_speedup"],
        ),
        (
            "speedup_parallel",
            quick["speedup_parallel"],
            committed_quick["speedup_parallel"],
        ),
    ):
        # Cap the reference at the acceptance bar so a lucky committed
        # run can't ratchet the floor above what the gate is meant to
        # protect: "still roughly as fast as the pooled-vs-unpooled
        # contract promises", not "as fast as the best run ever
        # recorded".
        floor = min(committed, SPEEDUP_BAR) * REGRESSION_TOLERANCE
        status = "ok" if current >= floor else "REGRESSION"
        print(
            f"{metric}: current {current:.2f}x vs committed {committed:.2f}x "
            f"(floor {floor:.2f}x) -> {status}"
        )
        if current < floor:
            failures.append(metric)
    if not quick["bit_identical"]:
        print("bit_identical: False -> REGRESSION")
        failures.append("bit_identical")
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
        help="compare quick-mode speedups against a committed "
        "BENCH_hostpath.json; exit 1 on regression",
    )
    args = parser.parse_args(argv)

    payload = build_payload(quick_only=args.quick)
    print(_fmt(payload["quick"], "quick"))
    if "full" in payload:
        print(_fmt(payload["full"], "full"))

    if args.check_against is not None:
        return _check_against(payload, args.check_against)

    out = _ROOT / "BENCH_hostpath.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
