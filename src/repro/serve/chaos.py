"""Seeded chaos drill for the serving layer (``python -m repro.serve.chaos``).

The drill throws a randomized-but-seeded fault schedule — transfer
corruption, ECC bit-flips, allocation failures, device losses, operator
worker ejections — at a live multi-worker :class:`~repro.serve.server.FFTServer`
and asserts the three robustness invariants the layer promises:

1. **Zero lost futures.**  Every accepted submission resolves — to a
   result or a typed :mod:`repro.serve.errors` failure — and every
   refused submission raised a typed rejection synchronously.  Nothing
   hangs, nothing vanishes, the queue is empty at the end.
2. **Bit-identity of every result.**  Every completed request —
   faulted, retried, re-queued or degraded to the host alike — produced
   a result byte-for-byte identical to the fault-free reference (the
   standalone :class:`~repro.core.api.GpuFFT3D` plan — the same plan
   objects the server dispatches through, and a degraded transform
   runs its engine's own plan on the host).  A mismatch is a silent
   corruption that got past the CRC and Parseval checks.
3. **Determinism.**  The drill runs in the server's
   ``serial_dispatch`` mode, where worker assignment, fault streams and
   health transitions are pure functions of submission order, so a
   fixed seed reproduces the entire drill summary byte for byte.  The
   CLI runs the drill twice and compares.

The fault schedule derives from one seed via ``numpy`` ``SeedSequence``
spawning: each worker gets its own injector with rate-based soft faults,
and at least two workers carry a deterministic mid-drill device loss;
an operator ejection (:meth:`~repro.serve.server.FFTServer.eject_worker`)
fires partway through.  CI runs the quick profile
(``--seed 7 --requests 500 --quick``); the full drill defaults to 5000
requests on four workers.

``--cluster`` switches to the cluster scenario
(:func:`run_cluster_drill`): the same seeded mix against an
:class:`~repro.cluster.FFTCluster`, with one whole node killed at the
halfway mark instead of a worker ejection.  The invariants extend to
the cluster promises — no stranded futures across the fleet and the
surviving replicas absorb every re-queued request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import GpuFFT3D
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.serve.coalescer import CoalescePolicy
from repro.serve.errors import RejectedError
from repro.serve.health import HealthPolicy
from repro.serve.request import FFTFuture, FFTRequest
from repro.serve.server import FFTServer

__all__ = [
    "DrillConfig",
    "DrillResult",
    "build_requests",
    "run_drill",
    "run_cluster_drill",
    "main",
]

#: Transform shapes the drill mixes (all in-core, five-step plannable).
_SHAPES = ((16, 16, 16), (32, 16, 16), (16, 32, 16))

#: Tenants the drill submits as (exercises fair-share accounting).
_TENANTS = ("alice", "bob", "carol", "dave")


@dataclass(frozen=True)
class DrillConfig:
    """Everything that parameterizes one drill (and seeds all of it).

    ``quick`` shrinks the soft-fault rates and brings the deterministic
    device losses forward so a 500-request CI run still sees every
    event class; the invariants checked are identical.
    """

    seed: int = 7
    requests: int = 5000
    n_workers: int = 4
    max_batch: int = 8
    #: Requests submitted between synchronous pump (dispatch) cycles.
    chunk: int = 32
    quick: bool = False

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be at least 1")
        if self.n_workers < 2:
            raise ValueError("the drill needs at least two workers")
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")


@dataclass
class DrillResult:
    """Outcome of one drill: the canonical summary plus the verdict."""

    summary: dict
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no wall-clock fields) — two runs
        of the same config must produce byte-identical output."""
        return json.dumps(self.summary, sort_keys=True, indent=2)


def build_requests(cfg: DrillConfig) -> list[FFTRequest]:
    """The drill's deterministic request stream.

    Payloads, shapes, tenants, priorities and deadlines all derive from
    ``cfg.seed``; most deadlines are generous (they exist to exercise
    the re-queue feasibility re-check), a small slice is deliberately
    infeasible so typed admission rejections appear in every drill.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC0DE]))
    reqs = []
    for i in range(cfg.requests):
        shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
        x = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex64)
        deadline = None
        if i % 13 == 5:
            deadline = 30.0  # generous: ~1e5x a single transform
        elif i % 97 == 41:
            deadline = 1e-9  # infeasible on purpose: typed rejection
        reqs.append(
            FFTRequest(
                x,
                tenant=_TENANTS[i % len(_TENANTS)],
                priority=int(rng.integers(3)),
                deadline_s=deadline,
            )
        )
    return reqs


def _fault_schedule(cfg: DrillConfig) -> list[FaultInjector]:
    """Per-worker injectors: seeded soft faults + two hard device losses.

    Workers 1 and ``n_workers - 1`` carry a deterministic ``device-lost``
    at a launch-op index drawn from the seed (so the loss lands mid-
    stream, after the worker has done real work); every worker gets
    low-rate transfer corruption, ECC flips and allocation failures for
    the engines' internal machinery to absorb.
    """
    children = np.random.SeedSequence([cfg.seed, 0xFA117]).spawn(cfg.n_workers)
    scale = 0.4 if cfg.quick else 1.0
    lo, hi = (20, 120) if cfg.quick else (200, 1200)
    loss_workers = {1, cfg.n_workers - 1}
    injectors = []
    for wid, child in enumerate(children):
        rng = np.random.default_rng(child)
        specs = [
            FaultSpec("transfer-corrupt", rate=0.004 * scale),
            FaultSpec("ecc-bitflip", rate=0.002 * scale),
            FaultSpec("alloc-fail", rate=0.002 * scale),
            FaultSpec("transfer-fail", rate=0.003 * scale),
        ]
        if wid in loss_workers:
            specs.append(
                FaultSpec(
                    "device-lost",
                    at_ops=(int(rng.integers(lo, hi)),),
                    category="launch",
                )
            )
        injectors.append(
            FaultInjector(specs, seed=int(child.generate_state(1)[0]))
        )
    return injectors


def reference_digests(reqs: list[FFTRequest]) -> list[str]:
    """Fault-free result digest per request, via the standalone plans.

    The server dispatches through the same
    :data:`~repro.core.plan_cache.PLAN_CACHE` plan objects, so every
    served result — fault path or not — must match these bytes exactly.
    """
    plans: dict[tuple, GpuFFT3D] = {}
    digests = []
    for req in reqs:
        pkey = (req.shape, req.precision, req.norm)
        plan = plans.get(pkey)
        if plan is None:
            plan = plans[pkey] = GpuFFT3D(
                req.shape, precision=req.precision, norm=req.norm
            )
        out = plan.execute(req.x, inverse=req.inverse)
        digests.append(
            hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        )
    for plan in plans.values():
        plan.close()
    return digests


@dataclass
class _Tally:
    """What became of every submission — the counts both drills report."""

    accepted: int = 0
    rejected: int = 0
    unresolved: int = 0
    completed: int = 0
    completed_faulted: int = 0
    failed: int = 0
    failure_kinds: dict[str, int] = field(default_factory=dict)
    #: Completed results whose bytes differ from the fault-free digest
    #: (every completed result is compared).
    mismatches: int = 0
    requeued_done: int = 0
    requeued_unresolved: int = 0

    @classmethod
    def of(cls, outcomes: list[FFTFuture | str], refs: list[str]) -> "_Tally":
        """Tally one outcome (a future or a rejection reason) per request."""
        t = cls()
        for o, ref in zip(outcomes, refs):
            if isinstance(o, str):
                t.rejected += 1
                continue
            t.accepted += 1
            if o.requeues:
                if o.done():
                    t.requeued_done += 1
                else:
                    t.requeued_unresolved += 1
            if not o.done():
                t.unresolved += 1
                continue
            exc = o.exception()
            if exc is not None:
                t.failed += 1
                kind = type(exc).__name__
                t.failure_kinds[kind] = t.failure_kinds.get(kind, 0) + 1
                continue
            t.completed += 1
            if o.faulted:
                t.completed_faulted += 1
            digest = hashlib.sha256(
                np.ascontiguousarray(o.result()).tobytes()
            ).hexdigest()
            if digest != ref:
                t.mismatches += 1
        return t

    def counts(self) -> dict:
        """The outcome counts of a drill summary's ``counts`` block."""
        return {
            "completed": self.completed,
            "completed_faulted": self.completed_faulted,
            "failed": self.failed,
            "rejected": self.rejected,
            "failure_kinds": dict(sorted(self.failure_kinds.items())),
        }

    def violations(self, leftover_depth: int) -> list[str]:
        """Lost work and bit-identity breaks (invariants of every drill)."""
        out = []
        if self.unresolved:
            out.append(f"{self.unresolved} futures never resolved (lost work)")
        if leftover_depth:
            out.append(f"{leftover_depth} tickets stranded in the queue")
        if self.mismatches:
            out.append(
                f"{self.mismatches}/{self.completed} completed results differ "
                "from the fault-free reference"
            )
        return out


def run_drill(cfg: DrillConfig) -> DrillResult:
    """One full drill: build, bombard, drain, check every invariant."""
    reqs = build_requests(cfg)
    refs = reference_digests(reqs)
    eject_at = cfg.requests // 2  # operator pulls worker 0 mid-stream
    outcomes: list[FFTFuture | str] = []
    server = FFTServer(
        start=False,
        n_workers=cfg.n_workers,
        serial_dispatch=True,
        fault_injector=_fault_schedule(cfg),
        health=HealthPolicy(),
        max_depth=max(4 * cfg.chunk, 128),
        coalesce=CoalescePolicy(max_batch=cfg.max_batch, max_wait_s=0.0),
        name="chaos",
    )
    ejections = 0
    with server:
        for i, req in enumerate(reqs):
            if i == eject_at:
                server.eject_worker(0, reason="drill")
                ejections += 1
            try:
                outcomes.append(server.submit(req))
            except RejectedError as exc:
                outcomes.append(exc.reason)
            if (i + 1) % cfg.chunk == 0:
                server.run_pending()
        server.drain()
        stats = server.stats()
        monitor = server.health
        transitions = [
            {
                "worker": t.worker,
                "from": t.frm,
                "to": t.to,
                "dispatch_no": t.dispatch_no,
                "reason": t.reason,
                "device_s": round(t.device_s, 9),
            }
            for t in monitor.transitions
        ]
        health_snap = {str(k): v for k, v in monitor.snapshot().items()}
        leftover_depth = server.queue.depth

    tally = _Tally.of(outcomes, refs)
    violations = tally.violations(leftover_depth)
    device_losses = sum(
        1 for t in transitions if t["reason"] == "DeviceLostError"
    )
    if device_losses + ejections < 2:
        violations.append(
            f"drill saw only {device_losses} device losses and {ejections} "
            "ejections; the schedule must produce at least two hard events"
        )

    summary = {
        "config": {
            "seed": cfg.seed,
            "requests": cfg.requests,
            "n_workers": cfg.n_workers,
            "max_batch": cfg.max_batch,
            "chunk": cfg.chunk,
            "quick": cfg.quick,
        },
        "counts": {
            "submitted": stats.submitted,
            **tally.counts(),
            "rejected_reasons": dict(sorted(stats.rejected.items())),
            "requeued": stats.requeued,
            "batches": stats.batches,
            "expired": stats.expired,
        },
        "health": {
            "transitions": transitions,
            "workers": health_snap,
            "device_losses": device_losses,
            "operator_ejections": ejections,
        },
        "invariants": {
            "zero_lost_futures": tally.unresolved == 0 and leftover_depth == 0,
            "bit_identity_checked": tally.completed,
            "bit_identity_mismatches": tally.mismatches,
            "hard_events": device_losses + ejections,
        },
    }
    return DrillResult(summary=summary, violations=violations)


def _cluster_fault_schedule(cfg: DrillConfig) -> FaultInjector:
    """One seeded soft-fault injector for the whole cluster.

    The cluster splits it into independently seeded per-node children.
    No ``device-lost`` specs here: the cluster drill's hard event is the
    node kill itself, and soft faults exercise the per-node retry and
    re-queue machinery underneath it.
    """
    scale = 0.4 if cfg.quick else 1.0
    seed_seq = np.random.SeedSequence([cfg.seed, 0xC1057E4])
    specs = [
        FaultSpec("transfer-corrupt", rate=0.004 * scale),
        FaultSpec("ecc-bitflip", rate=0.002 * scale),
        FaultSpec("alloc-fail", rate=0.002 * scale),
        FaultSpec("transfer-fail", rate=0.003 * scale),
    ]
    return FaultInjector(specs, seed=int(seed_seq.generate_state(1)[0]))


def run_cluster_drill(cfg: DrillConfig) -> DrillResult:
    """Cluster chaos drill: lose a whole node mid-mix, lose no work.

    ``cfg.n_workers`` is read as the *node* count (one card per node).
    The drill bombards an :class:`~repro.cluster.FFTCluster` with the
    same seeded request stream as the single-server drill, kills one
    node at the halfway mark, then asserts the cluster-level invariants:

    1. **Zero stranded futures.**  Every accepted submission resolves —
       including every request re-queued off the dead node — and no
       survivor's queue holds leftover tickets.
    2. **Survivors absorb the re-queued work.**  The kill re-queues at
       least one in-flight request and all of them resolve on surviving
       replicas; nothing fails with a node-loss error while survivors
       remain.
    3. **Bit-identity of every result** and **determinism**, exactly
       as in :func:`run_drill` (re-queued requests, marked ``faulted``,
       are compared too).
    """
    from repro.cluster import FFTCluster

    reqs = build_requests(cfg)
    refs = reference_digests(reqs)
    n_nodes = cfg.n_workers
    victim = 1
    kill_at = cfg.requests // 2
    outcomes: list[FFTFuture | str] = []
    cluster = FFTCluster(
        n_nodes=n_nodes,
        cards_per_node=1,
        start=False,
        serial_dispatch=True,
        fault_injector=_cluster_fault_schedule(cfg),
        health=HealthPolicy(),
        max_depth=max(4 * cfg.chunk, 128),
        coalesce=CoalescePolicy(max_batch=cfg.max_batch, max_wait_s=0.0),
        name="chaos-cluster",
    )
    requeued_at_kill = 0
    with cluster:
        for i, req in enumerate(reqs):
            if i == kill_at:
                requeued_at_kill = cluster.kill_node(victim, reason="drill")
            try:
                outcomes.append(cluster.submit(req))
            except RejectedError as exc:
                outcomes.append(exc.reason)
            if (i + 1) % cfg.chunk == 0:
                cluster.run_pending()
        cluster.drain()
        stats = cluster.stats()
        leftover_depth = cluster.queue.depth

    tally = _Tally.of(outcomes, refs)
    violations = tally.violations(leftover_depth)
    if stats.inflight:
        violations.append(f"{stats.inflight} entries still tracked in-flight")
    if stats.node_losses != 1:
        violations.append(
            f"expected exactly one node loss, saw {stats.node_losses}"
        )
    if requeued_at_kill < 1:
        violations.append(
            "the node kill re-queued no in-flight work; move the kill "
            "point off a dispatch boundary"
        )
    if tally.requeued_unresolved:
        violations.append(
            f"{tally.requeued_unresolved} re-queued requests never resolved on "
            "the survivors"
        )
    survivor_failures = sum(
        n
        for kind, n in tally.failure_kinds.items()
        if kind in ("RequeueExhaustedError", "ServerClosedError")
    )
    if survivor_failures:
        violations.append(
            f"{survivor_failures} requests failed with node-loss errors "
            "while survivors remained"
        )

    nodes_summary = {
        name: {
            "alive": stats.node_alive[name],
            "submitted": node_stats.submitted,
            "batches": node_stats.batches,
            "queue_depth": node_stats.queue_depth,
        }
        for name, node_stats in sorted(stats.nodes.items())
    }
    summary = {
        "config": {
            "seed": cfg.seed,
            "requests": cfg.requests,
            "n_nodes": n_nodes,
            "max_batch": cfg.max_batch,
            "chunk": cfg.chunk,
            "quick": cfg.quick,
        },
        "counts": {
            "submitted": tally.accepted,
            **tally.counts(),
            "rejected_reasons": dict(sorted(stats.rejected.items())),
            "requeued": stats.requeued,
            "requeued_at_kill": requeued_at_kill,
            "node_losses": stats.node_losses,
        },
        "nodes": nodes_summary,
        "workers": dict(sorted(stats.worker_health.items())),
        "invariants": {
            "zero_lost_futures": tally.unresolved == 0
            and leftover_depth == 0
            and stats.inflight == 0,
            "survivors_absorbed": requeued_at_kill >= 1
            and tally.requeued_unresolved == 0
            and survivor_failures == 0,
            "bit_identity_checked": tally.completed,
            "bit_identity_mismatches": tally.mismatches,
            "requeued_futures_resolved": tally.requeued_done,
        },
    }
    return DrillResult(summary=summary, violations=violations)


def main(argv: list[str] | None = None) -> int:
    """CLI entry: run the drill twice, assert invariants + determinism."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Seeded chaos drill against a live FFTServer.",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=5000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI profile: softer fault rates, earlier device losses",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="run the cluster scenario: kill a node mid-mix "
        "(--workers is read as the node count)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="skip the second (determinism-checking) run",
    )
    args = parser.parse_args(argv)
    cfg = DrillConfig(
        seed=args.seed,
        requests=args.requests,
        n_workers=args.workers,
        max_batch=args.max_batch,
        quick=args.quick,
    )
    drill = run_cluster_drill if args.cluster else run_drill
    first = drill(cfg)
    print(first.to_json())
    rc = 0
    for v in first.violations:
        print(f"INVARIANT VIOLATED: {v}", file=sys.stderr)
        rc = 1
    if not args.once:
        second = drill(cfg)
        if second.to_json() != first.to_json():
            print(
                "INVARIANT VIOLATED: drill is not deterministic for "
                f"seed {cfg.seed}",
                file=sys.stderr,
            )
            rc = 1
        else:
            print(f"determinism: second run identical (seed {cfg.seed})")
    if rc == 0:
        print("chaos drill passed: all invariants held")
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main())
