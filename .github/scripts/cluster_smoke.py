"""CI smoke for the multi-node cluster.

Self-contained (starts its own fleet): launches a 3-node process
cluster plus a router, then drives the scale-out guarantees end to end:

1. mixed requests through the router land on more than one node, each
   on its ring owner (the batch is chosen by ring owner, so it always
   spans at least two of the randomly-ported nodes);
2. the same key submitted through every node compiles exactly once
   (ownership forwarding funnels into one engine's single-flight), and
   the router's ring and one built here from the node list name the
   owner the serving node reports; 100 hits from one client then ride kept-alive
   connections (``/metrics`` ``http.requests / http.connections >= 10``
   on the router and the owner node);
3. one node is SIGKILLed mid-batch — every remaining request is still
   answered, lost artifacts are recomputed, and nothing is served
   twice or differently;
4. the router's aggregated ``/metrics`` reports zero errors on the
   survivors;
5. a routed hit's ``result`` equals the owner node's, and the router
   and every surviving node answer the three hostile heads of
   ``hostile_heads.py`` with a JSON 4xx and a close.
"""

import sys
import tempfile
from pathlib import Path

from hostile_heads import check_hostile_heads
from repro.cluster.launch import ProcessCluster
from repro.cluster.ring import HashRing
from repro.cluster.router import serve_router_background
from repro.service.client import ServiceClient
from repro.service.keys import CellRequest

GRID = [("dotprod", 4, 8), ("add", 0, 1), ("add", 4, 8), ("sum", 4, 4),
        ("sum", 0, 8), ("maxval", 4, 1), ("maxval", 2, 8), ("merge", 4, 8)]


def spread_grid(ring) -> list:
    """GRID reordered so that its first four configs have at least two
    ring owners.  The ring hashes node URLs and the ports are random, so
    GRID's own first four share one owner now and then; the config that
    breaks the tie comes from GRID or, failing that, from the other
    (level, width) cells of its workloads."""
    def owner(cfg):
        return ring.node_for(CellRequest("run", *cfg).key)

    pool = GRID[1:] + [(wl, lv, wd)
                       for wl in ("add", "sum", "maxval", "merge")
                       for lv in range(6) for wd in (1, 2, 4, 8)]
    spread = next(cfg for cfg in pool if owner(cfg) != owner(GRID[0]))
    return [GRID[0], spread] + [cfg for cfg in GRID[1:] if cfg != spread]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-cluster-smoke-"))
    cluster = ProcessCluster(n=3, store_root=tmp, jobs=1).start()
    httpd, router, url = serve_router_background(cluster.urls)
    try:
        c = ServiceClient(url, timeout=120.0, retry=None)
        grid = spread_grid(router.ring)

        # 1: a mixed batch spreads across the fleet, each key on its owner
        first = {}
        nodes_seen = set()
        for wl, lv, wd in grid[:4]:
            r = c.run(wl, level=lv, width=wd, timeout=60.0)
            first[(wl, lv, wd)] = r["result"]
            owner = router.ring.node_for(CellRequest("run", wl, lv, wd).key)
            assert r["routed_by"] == r["node"] == owner, (
                f"({wl},{lv},{wd}) served by {r['node']}, owner {owner}")
            nodes_seen.add(r["node"])
        assert len(nodes_seen) > 1, \
            f"all requests landed on one node: {nodes_seen}"

        # 2: the same key through every node directly — exactly one
        # compilation fleet-wide (forwarded replies are store hits)
        replies = [ServiceClient(u, retry=None).run("dotprod", level=4,
                                                    width=8, timeout=60.0)
                   for u in cluster.urls]
        assert all(r["result"] == first[("dotprod", 4, 8)]
                   for r in replies), "duplicate key answered differently"
        assert all(r["cache"] == "hit" for r in replies), (
            "duplicate key recompiled: "
            f"{[r['cache'] for r in replies]}")
        owners = {r["node"] for r in replies}
        assert len(owners) == 1, f"key served by several owners: {owners}"

        # every hop derives the same identity: the router's ring and one
        # built from the node list agree with the owner the serving node
        # reports, asked directly
        ring = HashRing(cluster.urls)
        for wl, lv, wd in grid[:3]:
            key = CellRequest("run", wl, lv, wd).key
            with ServiceClient(ring.node_for(key), timeout=120.0,
                               retry=None) as direct:
                served = direct.run(wl, level=lv, width=wd, timeout=60.0)
            assert (router.ring.node_for(key) == ring.node_for(key)
                    == served["owner"] == served["node"]), (
                f"({wl},{lv},{wd}): router/ring/node disagree on owner")
            assert served["cache"] == "hit" and "forwarded" not in served

        # connections are reused on both hops: 100 hits from one client
        # ride its router connection and the router's one to the owner
        owner = router.ring.node_for(CellRequest("run", "dotprod", 4, 8).key)
        for _ in range(100):
            assert c.run("dotprod", level=4, width=8,
                         timeout=60.0)["cache"] == "hit"
        m = c.metrics()
        for where, http in (("router", m["http"]),
                            (owner, m["nodes"][owner]["http"])):
            assert http["requests"] >= 10 * http["connections"], (
                f"{where}: connections are not reused: {http}")
            print(f"{where}: {http['requests']} requests over "
                  f"{http['connections']} connection(s)")

        # 3: SIGKILL a node mid-batch; the batch must complete with
        # zero lost or duplicated results
        victim = sorted(cluster.urls)[0]
        cluster.kill(victim)
        second = {}
        for wl, lv, wd in grid[4:]:
            r = c.run(wl, level=lv, width=wd, timeout=60.0)
            second[(wl, lv, wd)] = r["result"]
        assert len(second) == len(grid[4:]), "requests lost after the kill"
        # re-request everything (including pre-kill keys): served again,
        # byte-identical — recomputed where the victim's shard died
        for (wl, lv, wd), want in {**first, **second}.items():
            got = c.run(wl, level=lv, width=wd, timeout=60.0)["result"]
            assert got == want, f"({wl},{lv},{wd}) changed after node kill"

        # 4: aggregated metrics — survivors clean, fleet accounted
        m = c.metrics()
        survivors = [u for u in cluster.urls if u != victim]
        for u in survivors:
            node_metrics = m["nodes"][u]
            assert not node_metrics.get("unreachable"), f"{u} unreachable"
            if node_metrics.get("errors"):
                print(f"{u} reported {node_metrics['errors']} error(s)",
                      file=sys.stderr)
                return 1
        assert m["nodes"][victim].get("unreachable") is True
        assert m["router"]["unroutable"] == 0
        assert m["router"]["failovers"] > 0, \
            "the kill never exercised failover"

        # 5: a routed hit relays the owner's result; hostile heads are
        # one JSON 4xx and a close at the router and at every survivor
        wl, lv, wd = next(
            cfg for cfg in grid
            if router.ring.node_for(CellRequest("run", *cfg).key) != victim)
        owner = router.ring.node_for(CellRequest("run", wl, lv, wd).key)
        routed = c.run(wl, level=lv, width=wd, timeout=60.0)
        at_owner = ServiceClient(owner, retry=None).run(
            wl, level=lv, width=wd, timeout=60.0)
        assert routed["cache"] == at_owner["cache"] == "hit"
        assert routed["result"] == at_owner["result"], \
            "the routed hit differs from the owner's"
        problems = [p for u in [url, *survivors]
                    for p in check_hostile_heads(u)]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(f"cluster smoke: ok ({len(grid)} configs over 3 nodes, "
              f"{m['router']['routed']} routed, "
              f"{m['router']['failovers']} failovers, victim {victim})")
        return 0
    finally:
        httpd.shutdown()
        cluster.stop()


if __name__ == "__main__":
    raise SystemExit(main())
