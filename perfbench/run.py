"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload fft256 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (``layers.py``).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name every metric with its unit and
sample count.  ``--all`` runs every workload, each in a fresh process,
prints one table and writes ``perfbench/out/results.json``.

Every run starts from a fresh, empty ``REPRO_JIT_CACHE`` so set-up pays
the one cjit compile a new machine pays.  ``setup_s`` is the median of
``SETUP_SAMPLES`` set-ups: this process's own and the rest in child
processes, each with its own empty cache, each checked bit for bit
against this process's verified first result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
#: Seed kept out of every tuning run; a later performance claim must
#: also hold on it.
HELD_OUT_SEED = 20081115
CHILD_TIMEOUT_S = 150


def _fresh_cache(run_dir: Path, k: int) -> str:
    path = run_dir / f"jit{k}"
    path.mkdir()
    return str(path)


def environment() -> dict:
    """What this run measured on; printed so runs can be compared."""
    import numpy as np

    from repro import jit
    from repro.jit import cc

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": jit.resolve_backend("cjit"),
        "cmul_modes": cc.cmul_modes(),
        "compiler": next(
            (shutil.which(c) for c in ("cc", "gcc", "clang") if shutil.which(c)),
            None,
        ),
    }


def check_backend(workload) -> None:
    """Fail the run unless every plan the workload executes runs cjit.

    Checked after the run, so a plan that degraded on a failed compile
    is caught too.  (The health monitor's probes also look up plans, but
    only for their kernel timing specs; they execute no transform.)
    """
    from repro.core.plan_cache import PLAN_CACHE
    from repro.gpu.specs import GEFORCE_8800_GTX

    for shape, _ in workload.shapes:
        plan = PLAN_CACHE.five_step(shape, "single", GEFORCE_8800_GTX, backend="cjit")
        if plan.backend != "cjit":
            raise SystemExit(f"{workload.name}: plan {shape} runs {plan.backend}")


def setup_child(args) -> None:
    """One set-up sample in a fresh process (cache dir set by the parent)."""
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    w.make_inputs()
    setup_s, digest = w.setup()
    w.close()
    print(json.dumps({"setup_s": setup_s, "digest": digest}))


def setup_samples(args, run_dir: Path) -> list[dict]:
    samples = []
    for k in range(1, SETUP_SAMPLES):
        env = dict(os.environ, REPRO_JIT_CACHE=_fresh_cache(run_dir, k))
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-child", "--workload",
             args.workload, "--seed", str(args.seed)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up child failed:\n{proc.stderr[-4000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def emit(kind: str, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the metric table, then the one-line JSON result.

    ``kind`` is ``"end_to_end"`` or ``"per_layer"``; the metrics must be
    exactly the ones ``BENCHMARK.json`` declares for it, with its units.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit, _) in metrics.items()}
    if got != expected:
        raise SystemExit(f"metrics {got} do not match BENCHMARK.json {kind} {expected}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:34s} {value:>14.6g} {unit:9s} n={n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))


def timed_run(args, run_dir: Path) -> None:
    from workloads import WORKLOADS

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    w = WORKLOADS[args.workload](args.seed)
    children = setup_samples(args, run_dir)
    w.make_inputs()
    setup_s, digest = w.setup()
    w.prepare_checks()
    w.run(args.seconds)
    check_backend(w)
    violations = w.verify()
    w.close()
    mismatched = [c for c in children if c["digest"] != digest]
    if mismatched:
        violations.append(f"{len(mismatched)} set-up samples gave a different first result")
    for v in violations:
        print(f"# VIOLATION {v}")
    if w.fault_counts():
        print(f"# fault counts {json.dumps(w.fault_counts(), sort_keys=True)}")
    setups = [setup_s] + [c["setup_s"] for c in children]
    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    metrics.update(w.metrics())
    failed = w.failed + w.failed_checks()
    emit("end_to_end", not violations and failed == 0, w.attempted, failed, metrics)


def traced_run(args) -> None:
    import layers
    from workloads import WORKLOADS

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    cls = WORKLOADS[args.workload]
    metrics, violations, attempted, failed, trace_path = layers.traced_run(
        cls, args.seed, args.seconds, OUT_DIR
    )
    check_backend(cls)
    for v in violations:
        print(f"# VIOLATION {v}")
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    emit("per_layer", not violations and failed == 0, attempted, failed, metrics)


def run_all(args) -> None:
    """Every workload in its own fresh process; one table, one file."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed:\n{proc.stderr[-4000:]}")
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(line for line in lines[:-1] if line.startswith("# ")))
        results[name] = json.loads(lines[-1])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "results.json"
    path.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "workloads": results}, indent=1, sort_keys=True))
    print(f"# results written to {path.relative_to(ROOT)}")
    if not all(r["correct"] for r in results.values()):
        raise SystemExit("a workload failed its correctness gate")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=("fft256", "serve_mix", "gateway_http", "chaos_serve")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.setup_child:
        return setup_child(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    os.environ["REPRO_JIT_CACHE"] = _fresh_cache(run_dir, 0)
    try:
        if args.trace:
            traced_run(args)
        else:
            timed_run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
