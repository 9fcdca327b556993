"""The one ring dispatcher: peer clients, preference walk, hop headers.

The router and the nodes' ownership forwarding send a keyed request
the same way: to the key's owner first, then — only if that node is
*unreachable* — along the ring's deterministic
:meth:`~repro.cluster.ring.HashRing.preference` order, every hop past
the owner tagged ``X-Repro-Hop: route`` so the fallback node computes
locally instead of re-forwarding to the corpse, and the served reply
marked ``"failover": true``.  A node that
*answered* is never failed over: its verdict (429 shed, 503 quarantine,
400, ...) propagates as the client exception it arrived as — shedding
is end-to-end backpressure, and the caller's retry policy is the right
place to honor it.

The per-node clients deliberately carry **no transport retry**
(``retry=None``): when a node is dead the right response is immediate
failover along the ring, not exponential backoff against a corpse.
"""

from __future__ import annotations

import threading

from ..service.client import (
    ServiceClient,
    ServiceRequestError,
    ServiceUnavailable,
)
from ..service.wire import with_fields
from .ring import HashRing

#: one node-to-node hop is allowed; a request carrying this header
#: (``forward`` | ``route``) is terminal — served locally,
#: never re-forwarded, so no routing loop can form even with a stale ring
HOP_HEADER = "X-Repro-Hop"

#: fleet views (health, metrics) are probes: a hung peer must not
#: stall them for a whole forwarded-wait timeout
PROBE_TIMEOUT = 15.0


class RingDispatcher:
    """A ring plus a cache of clients to its nodes."""

    def __init__(self, nodes, vnodes: int = 64, timeout: float = 300.0,
                 on_failover=None):
        self.ring = HashRing(nodes, vnodes=vnodes)
        #: read timeout of request hops — generous, the caller's
        #: connection waits while the serving node computes
        self.timeout = timeout
        #: called once per hop past an unreachable node (the counters)
        self.on_failover = on_failover
        self._lock = threading.Lock()
        self._clients: dict[tuple, ServiceClient] = {}

    def client(self, url: str, hop: str | None = None,
               timeout: float | None = None) -> ServiceClient:
        """The cached client to ``url`` that sends hop header ``hop``."""
        timeout = self.timeout if timeout is None else timeout
        with self._lock:
            c = self._clients.get((url, hop, timeout))
            if c is None:
                c = self._clients[(url, hop, timeout)] = ServiceClient(
                    url, timeout=timeout, retry=None,
                    headers={HOP_HEADER: hop} if hop else {})
        return c

    def post(self, path: str, body: dict, key: str, *,
             owner_hop: str | None = None,
             max_hops: int | None = None) -> tuple[str, bytes]:
        """POST along ``key``'s preference order; returns ``(url,
        reply)`` of the first node that answers, the reply as the JSON
        bytes it sent (relayed, not decoded).  The owner gets
        ``owner_hop`` (a router's plain request, a node's ``forward``);
        ``max_hops=1`` is the no-failover case.  Raises
        :class:`ServiceUnavailable` when no node tried is reachable."""
        last = None
        for i, url in enumerate(self.ring.preference(key)[:max_hops]):
            try:
                reply = self.client(url, "route" if i else owner_hop
                                    )._call_raw("POST", path, body)
            except ServiceUnavailable as e:
                last = e
                if self.on_failover is not None:
                    self.on_failover()
                continue
            if i:
                reply = with_fields(reply, {"failover": True})
            return url, reply
        raise ServiceUnavailable(
            f"no node reachable for key {key[:12]}: {last}")

    # -- fleet views -----------------------------------------------------

    def fleet(self, path: str) -> dict:
        """``GET path`` from every node: url -> reply, or None for a
        node that cannot be asked."""
        out = {}
        for url in self.ring.nodes:
            try:
                out[url] = self.client(url, timeout=PROBE_TIMEOUT)._call(
                    "GET", path)
            except (ServiceUnavailable, ServiceRequestError):
                out[url] = None
        return out

    def health(self) -> dict:
        nodes = {url: bool(h and h.get("ok"))
                 for url, h in self.fleet("/healthz").items()}
        return {"ok": any(nodes.values()), "nodes": nodes}

    def metrics(self) -> dict:
        return {url: m if m is not None else {"unreachable": True}
                for url, m in self.fleet("/metrics").items()}
