"""A cluster node: the whole service, plus sharding.

A node is the single-process compilation service (HTTP handler, async
job engine, supervised fork pool, store shard) extended with one
cluster behavior, **ownership forwarding (the single-flight funnel)**.
Every request key has exactly one owner on the consistent-hash ring.
A node receiving ``/v1/compile|run`` for a key it does not own proxies
the request to the owner and relays the reply (*forwarded-wait*: the
caller's connection waits while the owner computes).  Because every
copy of a key funnels into the owner's
:class:`~repro.service.jobs.JobEngine`, its existing single-flight
table *is* the cluster-wide in-flight registry — the same key
submitted to two different nodes compiles exactly once, with zero new
coordination state.  If the owner is unreachable the node computes
locally instead (counted as ``failover_local`` — the recovery path the
chaos oracle reconciles against).

Overload is the engine's one rule on every node: a stored result is a
hit whatever the queue depth, a miss past capacity is a 429 that the
caller's retry policy handles.

Hop headers (``X-Repro-Hop: forward|route``) are loop guards: a
request that already made one node-to-node (or router-to-node) hop is
terminal — it is served locally, never re-forwarded, so no routing loop
can form even with a stale ring.
"""

from __future__ import annotations

import threading
from collections import Counter
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..service.client import ServiceUnavailable
from ..service.jobs import JobEngine
from ..service.keys import CellRequest
from ..service.server import ServiceHTTPServer, _Handler
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
        self.counters: Counter = Counter({
            "forwarded_out": 0,   # proxied to the key's owner
            "forwarded_in": 0,    # served here for another node's caller
            "failover_local": 0,  # owner unreachable: computed here
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


class _NodeHandler(_Handler):
    """The service handler plus cluster routing (see module docstring)."""

    server_version = "repro-cluster-node/1"
    cluster: ClusterState = None

    def _metrics(self) -> dict:
        return {**self.engine.metrics(),
                "cluster": {"node": self.cluster.self_url,
                            **self.cluster.snapshot()}}

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
