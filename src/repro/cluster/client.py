"""Ring-aware client SDK: owner-direct dispatch without a router hop.

    from repro.cluster.client import ClusterClient

    c = ClusterClient(["http://127.0.0.1:9001", "http://127.0.0.1:9002"])
    r = c.run("dotprod", level=4, width=8)   # straight to the owner node
    job = c.sweep(["add", "sum"])            # (node_url, job_id) handle
    rec = c.wait_job(job)

The client builds the same consistent-hash ring the nodes use, so a
single request goes **directly** to the node that owns (and caches) its
key — no router round-trip, no second hop.  When the owner is down the
client walks the key's deterministic preference order itself, sending
the ``X-Repro-Hop: route`` header so the fallback node computes locally
(the *forwarded-wait* path) instead of re-forwarding to the corpse;
such replies carry ``"failover": true`` and are tallied in
``c.failovers``.

Sweeps are whole-grid: submitted to the first reachable node in the
grid key's preference order (that node's engine batches the cells); the
returned handle ``(node_url, job_id)`` pins polling to the node that
owns the job.  A malformed request raises ``ValueError`` here, before
anything is sent.  For *cell-wise* sweep spreading use the router
(:mod:`repro.cluster.router`), which this client happily points at too
— a router URL passed as the only "node" degenerates every call into
plain proxying.
"""

from __future__ import annotations

import json

from ..service.client import ServiceClient
from ..service.keys import CellRequest, SweepRequest
from .peers import RingDispatcher


class ClusterClient(ServiceClient):
    """A :class:`ServiceClient` whose transport is the ring: the
    endpoint methods (``compile``/``run``/``sweep``/``healthz``/
    ``metrics``/``wait_job``) are inherited, :meth:`_call` sends each
    request to its key's owner and asks the whole fleet for views."""

    def __init__(self, nodes: list[str], timeout: float = 300.0,
                 vnodes: int = 64):
        if not nodes:
            raise ValueError("need at least one node URL")
        super().__init__(nodes[0], timeout=timeout, retry=None)
        #: preference-order hops taken past unreachable owners
        self.failovers = 0
        self.peers = RingDispatcher(nodes, vnodes=vnodes, timeout=timeout,
                                    on_failover=self._failed_over)
        self.ring = self.peers.ring

    def _failed_over(self) -> None:
        self.failovers += 1

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        if method == "GET":
            return {"/healthz": self.peers.health,
                    "/metrics": self.peers.metrics}[path]()
        if path != "/v1/sweep":
            req = CellRequest.from_body(body, path.rsplit("/", 1)[1])
            return json.loads(self.peers.post(path, body, req.key)[1])
        # whole-grid sweeps — placement only (any string hashes onto the
        # ring): the same grid always lands on the same node, spreading
        # distinct sweeps
        s = SweepRequest.from_body(body)
        key = (f"sweep:{sorted(s.workloads)}:{sorted(s.levels)}"
               f":{sorted(s.widths)}:{s.seed}")
        url, raw = self.peers.post(path, body, key)
        reply = json.loads(raw)
        # the handle pins polling to the node that holds the job record
        # (a node that stole the sweep reports where it really lives)
        reply["job"] = (reply.get("node") or reply.get("routed_by") or url,
                        reply["job"])
        return reply

    def job(self, handle: tuple[str, str]) -> dict:
        node, jid = handle
        return self.peers.client(node).job(jid)
