"""A cluster node: the whole service, plus sharding & peer protocol.

A node is the single-process compilation service (HTTP handler, async
job engine, supervised fork pool, store shard) extended with three
cluster behaviors:

* **Ownership forwarding (the single-flight funnel).**  Every request
  key has exactly one owner on the consistent-hash ring.  A node
  receiving ``/v1/compile|run`` for a key it does not own proxies the
  request to the owner and relays the reply (*forwarded-wait*: the
  caller's connection waits while the owner computes).  Because every
  copy of a key funnels into the owner's
  :class:`~repro.service.jobs.JobEngine`, its existing single-flight
  table *is* the cluster-wide in-flight registry — the same key
  submitted to two different nodes compiles exactly once, with zero new
  coordination state.  If the owner is unreachable the node computes
  locally instead (counted as ``failover_local`` — the recovery path
  the chaos oracle reconciles against).
* **Work-stealing on overload.**  When admission control sheds a
  request (pending queue past the soft-shed threshold), the node does
  not 429 immediately: it offers the computation to its least-loaded
  peer over ``POST /cluster/compute``, waits, lands the resulting
  artifact back on its *own* shard (it is the owner), and serves the
  reply marked ``"cache": "stolen"``.  Concurrent sheds of the same key
  join one steal through a small in-flight registry, mirroring the
  engine's dedup.  Only when no peer can take the work does the node
  fall back to degraded store serving and finally a real 429.
* **Peer protocol** (all JSON over the existing HTTP front)::

      POST /cluster/compute   {kind, workload, level, width, ...}
                              compute here regardless of ownership
      POST /cluster/put       {key, payload} -> land on this shard
      GET  /cluster/info      membership + load (queue depth, tiers)

Hop headers (``X-Repro-Hop: forward|route|steal``) are loop guards: a
request that already made one node-to-node (or router-to-node) hop is
terminal — it is served locally, never re-forwarded, so no routing loop
can form even with a stale ring.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import Future
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..service.client import (
    ServiceOverloaded,
    ServiceRequestError,
    ServiceUnavailable,
)
from ..service.jobs import JobEngine, Overloaded
from ..service.keys import CellRequest, SweepRequest
from ..service.server import ServiceError, ServiceHTTPServer, _Handler
from ..service.store import ArtifactStore
from ..service.wire import with_fields
from .peers import HOP_HEADER, RingDispatcher
from .ring import HashRing


class ClusterState:
    """One node's view of the cluster: ring, peer clients, counters."""

    def __init__(self, vnodes: int = 64):
        self.self_url: str | None = None
        self.vnodes = vnodes
        #: the ring and the clients to its nodes, once joined
        self.peers: RingDispatcher | None = None
        self.engine: JobEngine | None = None
        self._lock = threading.Lock()
        #: steal-path single-flight: key -> Future of the reply dict
        self._steal_inflight: dict[str, Future] = {}
        self.counters: Counter = Counter({
            "forwarded_out": 0,   # proxied to the key's owner
            "forwarded_in": 0,    # served here for another node's caller
            "failover_local": 0,  # owner unreachable: computed here
            "steals_out": 0,      # shed work handed to a peer
            "steals_in": 0,       # peer work computed here
            "steal_joined": 0,    # duplicate sheds joined one steal
            "puts_in": 0,         # artifacts landed here by peers
        })

    # -- membership ------------------------------------------------------

    def join(self, urls: list[str]) -> None:
        """Adopt the cluster membership (must include this node)."""
        if self.self_url is None:
            raise RuntimeError("node has no bound URL yet")
        if self.self_url not in urls:
            raise ValueError(f"{self.self_url} not in membership {urls}")
        self.peers = RingDispatcher(urls, vnodes=self.vnodes,
                                    timeout=self._hop_timeout)

    @property
    def ring(self) -> HashRing | None:
        return self.peers.ring if self.peers is not None else None

    @property
    def active(self) -> bool:
        return self.ring is not None and len(self.ring) > 1

    @property
    def _hop_timeout(self) -> float:
        """How long a hop to a peer may wait: the peer's own request
        deadline plus slack (forwarded-wait)."""
        return (self.engine.default_timeout if self.engine else 120.0) + 30.0

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)

    # -- forwarding ------------------------------------------------------

    def forward(self, path: str, req: CellRequest) -> bytes | None:
        """Proxy a request to the owning node — the dispatcher's one-hop
        case: the owner's reply bytes with ``forwarded`` spliced in, or
        None if it is down.  (If the owner answers, even 429/503, its
        verdict propagates and is relayed as-is.)"""
        try:
            _, reply = self.peers.post(path, req.to_body(), req.key,
                                       owner_hop="forward", max_hops=1)
        except ServiceUnavailable:
            return None
        self.count("forwarded_out")
        return with_fields(reply, {"forwarded": True})

    # -- work stealing ---------------------------------------------------

    def peer_loads(self) -> list[tuple[int, str]]:
        """(queue_depth, url) of reachable peers, least loaded first."""
        infos = self.peers.fleet("/cluster/info", skip=self.self_url)
        return sorted((int(info.get("queue_depth", 0)), url)
                      for url, info in infos.items() if info is not None)

    def steal(self, req: CellRequest) -> dict | None:
        """Hand a shed computation to a peer; None if no peer can take
        it.  Duplicate sheds of one key join a single steal."""
        if not self.active:
            return None
        key = req.key
        with self._lock:
            fut = self._steal_inflight.get(key)
            if fut is not None:
                joiner = True
            else:
                fut = Future()
                self._steal_inflight[key] = fut
                joiner = False
        if joiner:
            self.count("steal_joined")
            try:
                reply = fut.result(
                    timeout=(req.timeout + 30.0 if req.timeout is not None
                             else self._hop_timeout))
            except Exception:
                return None
            return None if reply is None else dict(reply)
        try:
            reply = self._steal_once(req)
            fut.set_result(reply)
            return reply
        except BaseException as e:
            fut.set_exception(e)
            raise
        finally:
            with self._lock:
                self._steal_inflight.pop(key, None)

    def offer(self, path: str, body: dict) -> tuple[str, dict] | None:
        """Offer shed work to the peers, least loaded first: ``(url,
        reply)`` of the one that took it, None if none can."""
        for _, url in self.peer_loads():
            try:
                reply = self.peers.client(url, "steal")._call(
                    "POST", path, body)
            except (ServiceUnavailable, ServiceOverloaded):
                continue  # peer died or is saturated too: try the next
            except ServiceRequestError:
                # a real compilation failure would recur anywhere; stop
                # burning peers and let the local shed path answer
                return None
            self.count("steals_out")
            return url, reply
        return None

    def _steal_once(self, req: CellRequest) -> dict | None:
        took = self.offer("/cluster/compute", req.to_body())
        if took is None:
            return None
        url, reply = took
        payload = reply.get("result")
        if payload is not None and self.engine is not None:
            # this node owns the key: land the artifact on *its*
            # shard so the cluster's placement stays consistent
            self.engine.store_put(req.key, payload)
        return {"job": None, "cache": "stolen", "result": payload,
                "node": self.self_url, "stolen_by": url}


class _NodeHandler(_Handler):
    """The service handler plus cluster routing (see module docstring)."""

    server_version = "repro-cluster-node/1"
    cluster: ClusterState = None

    routes = {
        **_Handler.routes,
        ("GET", "/cluster/info"): ("_get_info", None),
        ("POST", "/cluster/compute"): ("_post_compute",
                                       CellRequest.from_body),
        ("POST", "/cluster/put"): ("_post_put", None),
    }

    # -- GET -------------------------------------------------------------

    def _get_info(self, _) -> None:
        cl = self.cluster
        self._send(200, {
            "node": cl.self_url,
            "nodes": cl.ring.nodes if cl.ring is not None else [],
            "queue_depth": self.engine.queue_depth,
            "soft_pending": self.engine.soft_pending,
            "max_pending": self.engine.max_pending,
            "counters": cl.snapshot(),
            "computed": self.engine.counters["computed"],
        })

    def _metrics(self) -> dict:
        return {**self.engine.metrics(),
                "cluster": {"node": self.cluster.self_url,
                            **self.cluster.snapshot()}}

    # -- POST ------------------------------------------------------------

    def _post_compute(self, req: CellRequest) -> None:
        """Compute here regardless of ownership (the steal target)."""
        if req.kind not in ("compile", "run"):
            raise ServiceError(400, f"bad kind {req.kind!r}")
        if self.headers.get(HOP_HEADER) == "steal":
            self.cluster.count("steals_in")
        super()._post_cell(req, extra={"node": self.cluster.self_url})

    def _post_put(self, body: dict) -> None:
        try:
            key = str(body["key"])
            payload = body["payload"]
        except (KeyError, TypeError) as e:
            raise ServiceError(400, f"bad request: {e!r}") from None
        self.cluster.count("puts_in")
        stored = self.engine.store_put(key, payload)
        self._send(200, {"stored": bool(stored),
                         "node": self.cluster.self_url})

    def _post_cell(self, req: CellRequest) -> None:
        cl = self.cluster
        if not cl.active:
            return super()._post_cell(req)
        owner = cl.ring.node_for(req.key)
        hop = self.headers.get(HOP_HEADER)
        if owner != cl.self_url and hop is None:
            reply = cl.forward(self.path, req)
            if reply is not None:
                self._send_raw(200, reply)
                return
            # owner down: compute here so the request still succeeds
            # (the artifact lands on this shard; the chaos oracle
            # counts this as the recovery of a node-loss fault)
            cl.count("failover_local")
        elif hop == "forward":
            cl.count("forwarded_in")
        super()._post_cell(req, extra={"node": cl.self_url, "owner": owner})

    def _post_sweep(self, sweep: SweepRequest) -> None:
        cl = self.cluster
        try:
            super()._post_sweep(sweep)
        except Overloaded:
            # soft-shed tier crossed: offer the whole sweep to the
            # least-loaded peer before shedding for real
            took = (cl.offer("/v1/sweep", sweep.to_body())
                    if cl.active and self.headers.get(HOP_HEADER) is None
                    else None)
            if took is None:
                raise
            url, reply = took
            self._send(202, {**reply, "node": url, "stolen_by": url})

    def _on_overload(self, req: CellRequest) -> dict | None:
        cl = self.cluster
        if cl.active and self.headers.get(HOP_HEADER) != "steal":
            reply = cl.steal(req)
            if reply is not None:
                return reply
        return super()._on_overload(req)


def make_node(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: str | Path | None = None,
    jobs: int = 1,
    max_pending: int = 64,
    max_store_bytes: int | None = None,
    default_timeout: float = 120.0,
    quiet: bool = True,
    vnodes: int = 64,
) -> tuple[ThreadingHTTPServer, JobEngine, ClusterState]:
    """Build (but do not start) one cluster node; port 0 picks a free
    port.  Call ``cluster.join(all_urls)`` once every node is bound."""
    store = (ArtifactStore(Path(store_dir), max_bytes=max_store_bytes)
             if store_dir is not None else None)
    engine = JobEngine(store=store, jobs=jobs, max_pending=max_pending,
                       default_timeout=default_timeout)
    cluster = ClusterState(vnodes=vnodes)
    cluster.engine = engine
    handler = type("NodeHandler", (_NodeHandler,),
                   {"engine": engine, "cluster": cluster, "quiet": quiet})
    httpd = ServiceHTTPServer((host, port), handler)
    bound_host, bound_port = httpd.server_address[:2]
    cluster.self_url = f"http://{bound_host}:{bound_port}"
    return httpd, engine, cluster


def serve_node_background(**kwargs):
    """Start one node on a daemon thread; returns
    ``(httpd, engine, cluster, url)``.  Test/benchmark helper."""
    httpd, engine, cluster = make_node(**kwargs)
    threading.Thread(target=httpd.serve_forever, daemon=True,
                     name="repro-cluster-node-http").start()
    return httpd, engine, cluster, cluster.self_url
