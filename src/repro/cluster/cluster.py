"""`FFTCluster`: N simulated nodes behind a consistent-hash routing tier.

Each node is one machine: an :class:`~repro.serve.server.FFTServer`
replica with its own cards (workers), its own fault-injector child and
its own plan-cache scope.  The cluster front door routes every request by
consistent hashing of ``plan-key slug / tenant`` — so one plan's
requests keep landing where its engines are warm — with bounded-load
spilling so a hot key cannot starve the fleet.

The cluster exposes the same duck-typed surface the ASGI gateway
consumes from a single ``FFTServer`` (``submit``, ``queue.depth``,
``metrics``, ``profiler``, ``draining``, ``health.any_dispatchable()``,
``stats()``), so ``Gateway(cluster)`` works unchanged.

Failure model: :meth:`FFTCluster.kill_node` (the chaos drill's node-loss
action) removes the node from the ring, closes its server, and re-queues
every not-yet-resolved request onto the survivors by ring walk order —
the same loss-free guarantee the single server makes for worker deaths,
lifted one level up.  Requests that cannot be re-placed fail with the
*existing* typed taxonomy (``RequeueExhaustedError`` /
``ServerClosedError``); node loss introduces no new error codes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.plan_cache import PLAN_CACHE
from repro.cluster.distributed import DistributedFFT3D
from repro.cluster.router import ConsistentHashRouter
from repro.gpu.faults import FaultInjector
from repro.gpu.interconnect import ClusterInterconnect
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.obs.metrics import MetricsRegistry
from repro.serve.coalescer import CoalescePolicy
from repro.serve.errors import (
    DrainingError,
    QueueFullError,
    RejectedError,
    RequeueExhaustedError,
    ServerClosedError,
)
from repro.serve.health import HealthPolicy
from repro.serve.request import FFTFuture, FFTRequest
from repro.serve.server import FFTServer, ServeStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["ClusterNode", "ClusterStats", "FFTCluster"]


@dataclass
class ClusterNode:
    """One simulated machine: a named server replica and its liveness."""

    node_id: int
    name: str
    server: FFTServer
    alive: bool = True


@dataclass
class ClusterStats:
    """Cluster-level snapshot plus every node's own account.

    The scalar fields are what the gateway's health route reads
    (``queue_depth``/``inflight``/``completed``/``worker_health``);
    ``nodes`` carries the full per-node :class:`ServeStats` so nothing
    is folded away.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Requests re-queued across nodes after a node loss.
    requeued: int = 0
    node_losses: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    inflight: int = 0
    #: ``"n0/w1" -> state`` for live nodes, ``"n2" -> "dead"`` for lost ones.
    worker_health: dict[str, str] = field(default_factory=dict)
    nodes: dict[str, ServeStats] = field(default_factory=dict)
    node_alive: dict[str, bool] = field(default_factory=dict)


@dataclass
class _Entry:
    """Tracking for one in-flight cluster request.

    ``inner`` is the node-server future currently carrying the request;
    a node loss supersedes it (sets it to ``None``) before closing the
    node, so the dead server's ``ServerClosedError`` resolution is
    ignored and the re-queued future takes over.
    """

    request: FFTRequest
    outer: FFTFuture
    route_key: str
    node: str
    inner: FFTFuture | None
    weight: float


class _ClusterQueueView:
    """Duck-type of ``FFTServer.queue`` for the gateway: summed depth."""

    def __init__(self, cluster: "FFTCluster"):
        self._cluster = cluster

    @property
    def depth(self) -> int:
        """Requests queued across all live nodes."""
        return sum(
            node.server.queue.depth
            for node in self._cluster.nodes
            if node.alive
        )


class _ClusterHealthView:
    """Duck-type of ``FFTServer.health`` for the gateway."""

    def __init__(self, cluster: "FFTCluster"):
        self._cluster = cluster

    def any_dispatchable(self) -> bool:
        """True while any live node can take traffic."""
        for node in self._cluster.nodes:
            if not node.alive:
                continue
            if node.server.health.any_dispatchable():
                return True
        return False


class FFTCluster:
    """A routed fleet of ``FFTServer`` replicas on one simulated fabric.

    Parameters
    ----------
    n_nodes / cards_per_node:
        Fleet shape: each node runs an independent server with
        ``cards_per_node`` workers (its own simulated cards).
    device / interconnect:
        The per-node card model and the inter-node fabric (used by the
        distributed plan's exchange phases).
    fault_injector:
        A single injector is :meth:`~repro.gpu.faults.FaultInjector.split`
        into independently seeded per-node children (each node splits its
        child again per worker); a sequence of exactly ``n_nodes``
        injectors scopes each node explicitly.
    health / coalesce / max_depth / serial_dispatch / start:
        Forwarded to every node's server.  ``start=False`` is the
        deterministic drive mode: the caller pumps :meth:`run_pending`.
    profiler:
        Optional :class:`repro.obs.Profiler`.  Node simulators attach to
        its tracer under a per-node scope and each node's plan-cache
        traffic is folded under its own scope label, so cluster runs do
        not cross-contaminate single-process metrics.  Node servers keep
        *separate* registries for their ``serve.*`` families.
    vnodes / balance_factor:
        Consistent-hash ring shape (virtual nodes per node) and the
        bounded-load spill threshold.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        cards_per_node: int = 1,
        device: DeviceSpec = GEFORCE_8800_GTX,
        interconnect: ClusterInterconnect | None = None,
        fault_injector: FaultInjector | Sequence[FaultInjector] | None = None,
        health: HealthPolicy | None = None,
        coalesce: CoalescePolicy | None = None,
        max_depth: int = 256,
        serial_dispatch: bool = False,
        start: bool = True,
        profiler: Profiler | None = None,
        vnodes: int = 64,
        balance_factor: float = 1.25,
        name: str = "cluster",
    ):
        if n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        self.device = device
        self.interconnect = interconnect or ClusterInterconnect()
        self.profiler = profiler
        self.metrics: MetricsRegistry = (
            profiler.metrics if profiler is not None else MetricsRegistry()
        )
        self._name = name
        injectors: list[FaultInjector | None]
        if fault_injector is None:
            injectors = [None] * n_nodes
        elif isinstance(fault_injector, FaultInjector):
            injectors = (
                [fault_injector] if n_nodes == 1 else fault_injector.split(n_nodes)
            )
        else:
            injectors = list(fault_injector)
            if len(injectors) != n_nodes:
                raise ValueError(
                    f"need exactly one fault injector per node: got "
                    f"{len(injectors)} for n_nodes={n_nodes}"
                )
        self.nodes: list[ClusterNode] = []
        for nid in range(n_nodes):
            node_name = f"n{nid}"
            server = FFTServer(
                device=device,
                coalesce=coalesce,
                max_depth=max_depth,
                n_workers=cards_per_node,
                serial_dispatch=serial_dispatch,
                fault_injector=injectors[nid],
                health=health,
                profiler=None,
                start=start,
                name=f"{name}-{node_name}",
            )
            if profiler is not None:
                for sim in server._sims:
                    profiler.attach(sim, scope=node_name)
            self.nodes.append(ClusterNode(nid, node_name, server))
        self._by_name = {node.name: node for node in self.nodes}
        self._router = ConsistentHashRouter(
            self._by_name, vnodes=vnodes, balance_factor=balance_factor
        )
        self.queue = _ClusterQueueView(self)
        self.health = _ClusterHealthView(self)
        self._lock = threading.Lock()
        self._entries: dict[int, _Entry] = {}
        self._outstanding: dict[str, float] = {n.name: 0.0 for n in self.nodes}
        self._completion_seq = count()
        self._completed = 0
        self._failed = 0
        self._requeued = 0
        self._node_losses = 0
        self._rejected: dict[str, int] = {}
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------
    # Routing + client surface
    # ------------------------------------------------------------------

    @staticmethod
    def route_key(request: FFTRequest) -> str:
        """The sharding key: plan-cache key plus tenant.

        The plan slug keeps one plan's traffic on the node whose engines
        and plan cache are warm for it; the tenant suffix spreads a
        popular plan's many tenants over the ring instead of pinning the
        whole fleet's favorite shape to one node.
        """
        return f"{request.plan_key().slug}/{request.tenant}"

    def _load_of(self, name: str) -> float:
        return self._outstanding.get(name, 0.0)

    def _alive(self) -> list[ClusterNode]:
        return [node for node in self.nodes if node.alive]

    def submit(self, request: FFTRequest) -> FFTFuture:
        """Route one request to a replica; returns a cluster-level future.

        Raises the same typed errors a single server's ``submit`` does.
        A replica whose queue is full spills to the next node on the
        key's ring walk; only when every live replica refuses does the
        last rejection propagate.
        """
        if self._closed:
            raise ServerClosedError("cluster is closed")
        if not isinstance(request, FFTRequest):
            raise TypeError("submit() takes an FFTRequest")
        with self._lock:
            if self._draining:
                raise self._reject(
                    DrainingError(
                        "cluster is draining; admission resumes when it completes"
                    )
                )
        if not self._alive():
            raise ServerClosedError("no live nodes in the cluster")
        key = self.route_key(request)
        weight = float(np.asarray(request.x).nbytes)
        with self._lock:
            primary = self._router.route(key, self._load_of, weight)
        order = [primary] + [
            m for m in self._router.ring.preference(key) if m != primary
        ]
        self.metrics.counter("cluster.submitted", "requests").inc()
        last_reject: RejectedError | None = None
        for node_name in order:
            node = self._by_name[node_name]
            if not node.alive:
                continue
            try:
                with PLAN_CACHE.scoped(node_name):
                    inner = node.server.submit(request)
            except QueueFullError as exc:
                last_reject = exc
                continue
            except RejectedError as exc:
                raise self._reject(exc) from None
            break
        else:
            assert last_reject is not None
            raise self._reject(last_reject) from None
        outer = FFTFuture(request)
        entry = _Entry(request, outer, key, node_name, inner, weight)
        with self._lock:
            self._entries[id(outer)] = entry
            self._outstanding[node_name] += weight
        self.metrics.counter(
            "cluster.routed", "requests", {"node": node_name}
        ).inc()
        inner.add_done_callback(lambda fut, e=entry: self._on_inner_done(e, fut))
        return outer

    def _reject(self, exc: RejectedError) -> RejectedError:
        with self._lock:
            self._rejected[exc.reason] = self._rejected.get(exc.reason, 0) + 1
        self.metrics.counter(
            "cluster.rejected", "requests", {"reason": exc.reason}
        ).inc()
        return exc

    def _on_inner_done(self, entry: _Entry, fut: FFTFuture) -> None:
        """Copy a node future's outcome onto the cluster future.

        Runs on the resolving node's dispatch thread.  A superseded
        future (its node was killed after this future was created but
        before it resolved) is ignored — the re-queued replacement owns
        the outer future now.
        """
        with self._lock:
            if entry.inner is not fut:
                return
            self._entries.pop(id(entry.outer), None)
            self._outstanding[entry.node] = max(
                0.0, self._outstanding[entry.node] - entry.weight
            )
        outer = entry.outer
        outer.batch_id = fut.batch_id
        outer.batch_size = fut.batch_size
        outer.worker = fut.worker
        outer.requeues += fut.requeues
        outer.faulted = outer.faulted or fut.faulted
        outer.queue_wait_s = fut.queue_wait_s
        outer.finish_device_s = fut.finish_device_s
        exc = fut._exception
        if exc is None:
            with self._lock:
                self._completed += 1
            self.metrics.counter("cluster.completed", "requests").inc()
            outer._resolve(fut._result, next(self._completion_seq))
        else:
            with self._lock:
                self._failed += 1
            self.metrics.counter("cluster.failed", "requests").inc()
            outer._fail(exc, next(self._completion_seq))

    # ------------------------------------------------------------------
    # Drive + lifecycle
    # ------------------------------------------------------------------

    def run_pending(self) -> int:
        """Synchronously dispatch every node's queue; returns batch count.

        The deterministic drive mode (nodes built with ``start=False``):
        rounds of per-node :meth:`FFTServer.run_pending` until a full
        round moves nothing, so cross-node re-queues settle too.
        """
        total = 0
        while True:
            moved = 0
            for node in self._alive():
                with PLAN_CACHE.scoped(node.name):
                    moved += node.server.run_pending()
            total += moved
            if moved == 0:
                return total

    @property
    def elapsed(self) -> float:
        """Cluster makespan: the busiest node's simulated clock."""
        return max(
            (node.server.simulator.elapsed for node in self.nodes), default=0.0
        )

    @property
    def draining(self) -> bool:
        """True while cluster admission is paused."""
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Pause admission fleet-wide (idempotent)."""
        with self._lock:
            self._draining = True
        for node in self._alive():
            node.server.begin_drain()

    def end_drain(self) -> None:
        """Re-open admission after :meth:`begin_drain` (idempotent)."""
        with self._lock:
            self._draining = False
        for node in self._alive():
            node.server.end_drain()

    def drain(self, timeout: float | None = None) -> bool:
        """Quiesce every node; True when the whole fleet emptied."""
        self.begin_drain()
        try:
            ok = True
            for node in self._alive():
                ok = node.server.drain(timeout) and ok
        finally:
            self.end_drain()
        return ok

    def close(self, discard: bool = False) -> None:
        """Shut every node down (idempotent); see ``FFTServer.close``."""
        if self._closed:
            return
        self._closed = True
        for node in self.nodes:
            if node.alive:
                node.server.close(discard=discard)

    def __enter__(self) -> "FFTCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Node loss
    # ------------------------------------------------------------------

    def kill_node(self, node: int | str, reason: str = "chaos") -> int:
        """Lose a node: close its server, re-queue its work on survivors.

        Every request routed to the node and not yet resolved is
        re-submitted to the remaining replicas along its key's ring walk
        (admission runs again on the new node; a full queue spills
        onward).  Requests no survivor accepts fail with
        :class:`RequeueExhaustedError`; with no survivors at all they
        fail with :class:`ServerClosedError`.  Nothing strands: by
        return, every affected future is either re-queued or resolved.
        Returns the number of re-queued requests.
        """
        name = node if isinstance(node, str) else f"n{node}"
        target = self._by_name.get(name)
        if target is None:
            raise ValueError(f"no such node: {name}")
        with self._lock:
            if not target.alive:
                raise ValueError(f"node {name} is already dead")
            target.alive = False
            if name in self._router.ring:
                self._router.ring.remove(name)
            victims = [
                e
                for e in self._entries.values()
                if e.node == name and not e.outer.done()
            ]
            # Supersede before closing: the dead server's discard
            # resolutions must not reach the outer futures.
            for e in victims:
                e.inner = None
            self._outstanding[name] = 0.0
            self._node_losses += 1
        self.metrics.counter(
            "cluster.node.lost", "nodes", {"reason": reason}
        ).inc()
        if self.profiler is not None:
            self.profiler.tracer.emit(
                "host",
                f"cluster:node-loss:{name}",
                start=self.elapsed,
                seconds=0.0,
                node=name,
                reason=reason,
            )
        target.server.close(discard=True)
        requeued = 0
        for e in victims:
            if self._replace(e):
                requeued += 1
        with self._lock:
            self._requeued += requeued
        if requeued:
            self.metrics.counter("cluster.requeue.requests", "requests").inc(
                requeued
            )
        return requeued

    def _replace(self, entry: _Entry) -> bool:
        """Re-place one victim of a node loss; False when it failed out."""
        entry.outer.requeues += 1
        entry.outer.faulted = True
        last_reject: RejectedError | None = None
        for node_name in self._router.ring.preference(entry.route_key):
            node = self._by_name[node_name]
            if not node.alive:
                continue
            try:
                with PLAN_CACHE.scoped(node_name):
                    inner = node.server.submit(entry.request)
            except RejectedError as exc:
                last_reject = exc
                continue
            with self._lock:
                entry.inner = inner
                entry.node = node_name
                self._outstanding[node_name] += entry.weight
            self.metrics.counter(
                "cluster.routed", "requests", {"node": node_name}
            ).inc()
            inner.add_done_callback(
                lambda fut, e=entry: self._on_inner_done(e, fut)
            )
            return True
        with self._lock:
            self._entries.pop(id(entry.outer), None)
            self._failed += 1
        self.metrics.counter("cluster.failed", "requests").inc()
        if last_reject is not None:
            entry.outer._fail(
                RequeueExhaustedError(
                    f"no surviving node accepted the re-queued request; "
                    f"last rejection: {last_reject}"
                ),
                next(self._completion_seq),
            )
        else:
            entry.outer._fail(
                ServerClosedError("no live nodes to re-queue onto"),
                next(self._completion_seq),
            )
        return False

    # ------------------------------------------------------------------
    # Distributed transforms
    # ------------------------------------------------------------------

    def distributed_plan(
        self,
        shape: tuple[int, int, int] | int,
        decomposition: str = "slab",
        precision: str = "single",
        norm: str = "backward",
    ) -> DistributedFFT3D:
        """A decomposed plan spanning the cluster's live nodes."""
        return DistributedFFT3D(
            shape,
            n_nodes=len(self._alive()),
            decomposition=decomposition,
            device=self.device,
            precision=precision,
            norm=norm,
            interconnect=self.interconnect,
        )

    def execute_distributed(
        self,
        x: np.ndarray,
        decomposition: str = "slab",
        precision: str = "single",
        norm: str = "backward",
        inverse: bool = False,
    ) -> np.ndarray:
        """One transform too large for a card, spread over the fleet.

        Charges each live node's front card with its stage compute and
        the modeled all-to-all phases, so the exchange cost lands on the
        same clocks the serving path uses.
        """
        plan = self.distributed_plan(
            np.asarray(x).shape, decomposition, precision, norm
        )
        sims = [node.server.simulator for node in self._alive()]
        return plan.execute(x, inverse=inverse, simulators=sims)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> ClusterStats:
        """Cluster totals plus every node's own :class:`ServeStats`."""
        snap = ClusterStats()
        with self._lock:
            snap.completed = self._completed
            snap.failed = self._failed
            snap.requeued = self._requeued
            snap.node_losses = self._node_losses
            snap.rejected = dict(self._rejected)
            snap.inflight = len(self._entries)
        for node in self.nodes:
            stats = node.server.stats()
            snap.nodes[node.name] = stats
            snap.node_alive[node.name] = node.alive
            snap.submitted += stats.submitted
            if node.alive:
                snap.queue_depth += stats.queue_depth
                for wid, state in stats.worker_health.items():
                    snap.worker_health[f"{node.name}/w{wid}"] = state
            else:
                snap.worker_health[node.name] = "dead"
        return snap
