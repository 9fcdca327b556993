"""Cluster-layer tests: ring placement, ownership forwarding,
cross-node single-flight, the overload rule on a node, and the router
front-end.

The ring tests are pure; the service tests run small in-process
clusters (:class:`~repro.cluster.launch.ThreadCluster` or hand-built
nodes) over real HTTP on localhost.
"""

import hashlib
import json
import threading

import pytest

from repro.cluster.launch import ThreadCluster
from repro.cluster.node import serve_node_background
from repro.cluster.ring import HashRing
from repro.cluster.router import serve_router_background
from repro.experiments.sweep import load_sweep
from repro.pipeline import Level
from repro.service.client import ServiceClient, ServiceRequestError
from repro.service.keys import CellRequest

NODES = ("http://n1:1", "http://n2:1", "http://n3:1")


def keys(n: int) -> list[str]:
    return [hashlib.sha256(f"key-{i}".encode()).hexdigest()
            for i in range(n)]


#: cheap kernels to probe ring ownership with (ports, and so
#: placement, differ from run to run)
PROBES = ("add", "sum", "dotprod", "maxval", "merge", "SDS-1", "WSS-1")


def run_key(workload="dotprod", **fields) -> str:
    """The key of the ``/v1/run`` request ``client.run(workload,
    **fields)`` sends."""
    return CellRequest.from_body({"workload": workload, **fields}, "run").key


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_placement_independent_of_insertion_order(self):
        a = HashRing(NODES)
        b = HashRing(reversed(NODES))
        for k in keys(200):
            assert a.node_for(k) == b.node_for(k)
            assert a.preference(k) == b.preference(k)

    def test_adding_a_node_only_moves_keys_to_it(self):
        """Consistent hashing's contract: growing the ring reassigns
        *only* the keys the new node claims — every moved key moves to
        the newcomer, and the moved fraction is ~K/N."""
        ks = keys(800)
        before = {k: HashRing(NODES).node_for(k) for k in ks}
        grown = HashRing(NODES)
        grown.add("http://n4:1")
        moved = 0
        for k in ks:
            owner = grown.node_for(k)
            if owner != before[k]:
                assert owner == "http://n4:1", \
                    f"{k[:12]} moved between old nodes"
                moved += 1
        # expectation is K/4 = 200; generous bounds absorb vnode noise
        assert 0 < moved < len(ks) // 2

    def test_removing_a_node_only_moves_its_keys(self):
        ks = keys(800)
        full = HashRing(NODES)
        before = {k: full.node_for(k) for k in ks}
        shrunk = HashRing(NODES)
        shrunk.remove(NODES[0])
        for k in ks:
            if before[k] != NODES[0]:
                assert shrunk.node_for(k) == before[k], \
                    f"{k[:12]} moved although its owner survived"
            else:
                assert shrunk.node_for(k) != NODES[0]

    def test_vnodes_spread_load(self):
        counts = {n: 0 for n in NODES}
        ring = HashRing(NODES)
        for k in keys(3000):
            counts[ring.node_for(k)] += 1
        # perfect balance is 1000 each; vnode smoothing keeps every
        # node within a factor of ~2 of fair share
        assert all(400 < c < 1900 for c in counts.values()), counts

    def test_preference_is_owner_first_all_nodes_deterministic(self):
        ring = HashRing(NODES)
        for k in keys(50):
            pref = ring.preference(k)
            assert pref[0] == ring.node_for(k)
            assert sorted(pref) == sorted(NODES)
            assert pref == ring.preference(k)

    def test_empty_ring(self):
        ring = HashRing()
        with pytest.raises(ValueError):
            ring.node_for(keys(1)[0])
        assert ring.preference(keys(1)[0]) == []
        ring.add("http://solo:1")
        assert ring.node_for(keys(1)[0]) == "http://solo:1"

    def test_duplicate_add_and_absent_remove_are_noops(self):
        ring = HashRing(NODES)
        ring.add(NODES[0])
        ring.remove("http://ghost:1")
        assert len(ring) == 3
        assert ring.nodes == sorted(NODES)


# ---------------------------------------------------------------------------
# ownership forwarding (the cross-node single-flight funnel)
# ---------------------------------------------------------------------------


class TestForwarding:
    def test_any_node_serves_any_key_from_the_owner(self, tmp_path):
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            key = run_key()
            ring = tc.states[0].ring
            owner = ring.node_for(key)
            non_owners = [u for u in tc.urls if u != owner]

            r1 = ServiceClient(non_owners[0], retry=None).run("dotprod")
            assert r1["node"] == owner
            assert r1.get("forwarded") is True
            assert r1["cache"] == "miss"

            # via the *other* non-owner: same artifact, now a hit
            r2 = ServiceClient(non_owners[1], retry=None).run("dotprod")
            assert r2["node"] == owner
            assert r2["cache"] == "hit"
            assert r2["result"] == r1["result"]

            fwd_in = tc.states[tc.urls.index(owner)].counters["forwarded_in"]
            assert fwd_in == 2

    def test_hop_header_is_terminal(self, tmp_path):
        """One node-to-node hop max: a request that already hopped is
        served locally even by a non-owner (no forwarding loops)."""
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            key = run_key()
            owner = tc.states[0].ring.node_for(key)
            other = [u for u in tc.urls if u != owner][0]
            c = ServiceClient(other, retry=None,
                              headers={"X-Repro-Hop": "route"})
            r = c.run("dotprod")
            assert r["node"] == other  # computed here, not re-forwarded


class TestCrossNodeSingleFlight:
    def test_same_key_via_two_nodes_compiles_once(self, tmp_path):
        """The single-flight guarantee across the fleet: the same key
        submitted concurrently to two *different* nodes funnels into
        the owner's engine and compiles exactly once."""
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            replies = []
            lock = threading.Lock()

            def submit(url):
                r = ServiceClient(url, retry=None).run("sum", level=4,
                                                       width=8)
                with lock:
                    replies.append(r)

            threads = [threading.Thread(target=submit, args=(u,))
                       for u in tc.urls]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(replies) == 3
            results = [r["result"] for r in replies]
            assert results[0] == results[1] == results[2]
            computed = sum(e.counters["computed"] for e in tc.engines)
            assert computed == 1, (
                f"key compiled {computed}x across the fleet")
            # all three served by the owning node
            assert len({r["node"] for r in replies}) == 1


# ---------------------------------------------------------------------------
# overload: a stored result is a hit, a miss past capacity is a 429
# ---------------------------------------------------------------------------


def _two_nodes(tmp_path, overloaded_pending=0):
    """An overloaded node A (sheds every miss) plus a healthy peer B."""
    a = serve_node_background(store_dir=tmp_path / "a", jobs=1,
                              max_pending=overloaded_pending)
    b = serve_node_background(store_dir=tmp_path / "b", jobs=1)
    urls = [a[3], b[3]]
    for rig in (a, b):
        rig[2].join(urls)
    return a, b


def _owned_by(rig, wl, seeds):
    """Seeds whose ``/v1/run`` key ``rig``'s node owns: the rigs' ports,
    and so placement, differ from run to run."""
    return (s for s in seeds if rig[2].ring.node_for(run_key(wl, seed=s))
            == rig[3])


class TestOverload:
    def test_owner_past_capacity_answers_its_stored_key_as_a_hit(
            self, tmp_path):
        """An owner with no admission capacity whose shard already holds
        the key answers it from the shard: nothing is handed to a peer
        and nothing is compiled again."""
        a, b = _two_nodes(tmp_path)
        rigs = [a, b]
        try:
            wl = PROBES[0]
            seed = next(_owned_by(a, wl, range(1000)))
            key = run_key(wl, seed=seed)
            # populate A's shard through a healthy node on its directory
            healthy = serve_node_background(store_dir=tmp_path / "a",
                                            jobs=1)
            rigs.append(healthy)
            with ServiceClient(healthy[3], retry=None) as c:
                want = c.run(wl, seed=seed)
            assert want["cache"] == "miss" and a[1].store.contains(key)

            with ServiceClient(a[3], retry=None) as c:
                r = c.run(wl, seed=seed)
            assert r["cache"] == "hit"
            assert r["result"] == want["result"]
            assert (r["node"], r["owner"]) == (a[3], a[3])
            assert sum(e.counters["computed"] for e in (a[1], b[1])) == 0
            assert (a[1].counters["hits"], a[1].counters["shed"]) == (1, 0)
        finally:
            for rig in rigs:
                rig[0].shutdown()
                rig[0].server_close()
                rig[1].close()

    def test_owner_past_capacity_sheds_a_miss_as_429(self, tmp_path):
        """A miss past capacity is the owner's 429, whatever its peers'
        load: the caller's retry policy handles it."""
        from repro.service.client import ServiceOverloaded

        a, b = _two_nodes(tmp_path)
        try:
            wl = PROBES[0]
            seed = next(_owned_by(a, wl, range(1000)))
            with ServiceClient(a[3], retry=None) as c:
                with pytest.raises(ServiceOverloaded):
                    c.run(wl, seed=seed)
            assert a[1].counters["shed"] == 1
            assert sum(e.counters["computed"] for e in (a[1], b[1])) == 0
            assert not a[1].store.contains(run_key(wl, seed=seed))
        finally:
            for rig in (a, b):
                rig[0].shutdown()
                rig[0].server_close()
                rig[1].close()


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


class TestRouter:
    @pytest.fixture
    def routed(self, tmp_path):
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            httpd, router, url = serve_router_background(tc.urls)
            yield ServiceClient(url, timeout=120.0, retry=None), router
            httpd.shutdown()
            httpd.server_close()
        for node in tc.servers:
            node.server_close()

    def test_lev5_run_matches_the_committed_grid(self, routed):
        client, _ = routed
        want = load_sweep().get("dotprod", Level.LEV5, 8)
        got = client.run("dotprod", level=5, width=8)["result"]
        assert (got["cycles"], got["instructions"]) == (
            want.cycles, want.instructions)
        with pytest.raises(ServiceRequestError) as ei:
            client.run("dotprod", level=len(Level))
        assert ei.value.status == 400

    def test_sweep_defaults_to_every_level_and_width(self, routed):
        client, _ = routed
        rec = client.wait_job(client.sweep(["add"]), timeout=120.0)
        assert rec["state"] == "done"
        assert rec["result"]["configs"] == len(Level) * 4
        assert ({r["level"] for r in rec["result"]["results"]}
                == {int(lv) for lv in Level})

    def test_sweep_carries_check_ir_to_every_fanned_out_cell(self, routed):
        client, _ = routed
        rec = client.wait_job(
            client.sweep(["add"], levels=[0], widths=[1, 8], check_ir=True),
            timeout=120.0)
        assert rec["request"]["check_ir"] is True
        assert rec["result"]["configs"] == 2
        assert client.run("add", level=0, width=8,
                          check_ir=True)["cache"] == "hit"
        assert client.run("add", level=0, width=8)["cache"] == "miss"

    def test_malformed_requests_are_400_at_the_router(self, routed):
        client, router = routed
        for path, body in [
                ("/v1/run", {"workload": "add", "disable": ["nope"]}),
                ("/v1/run", {"workload": "add",
                             "disable": ["copyprop-global"]}),
                ("/v1/run", {"workload": "add", "check": "false"}),
                ("/v1/sweep", {"workloads": ["add"], "widths": [3]})]:
            with pytest.raises(ServiceRequestError) as ei:
                client._call("POST", path, body)
            assert ei.value.status == 400
        assert router.snapshot()["routed"] == 0

    def test_hits_ride_one_connection_per_hop(self, tmp_path):
        """200 hits from one client: one connection to the router, and
        per node at most one per router handler thread (here: one)."""
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            httpd, router, url = serve_router_background(tc.urls)
            try:
                client = ServiceClient(url, retry=None)
                for _ in range(200):
                    client.run("add")
                at_router = httpd.http_counts()
                at_nodes = {u: s.http_counts()
                            for u, s in zip(tc.urls, tc.servers)}
            finally:
                httpd.shutdown()
                httpd.server_close()
        for node in tc.servers:
            node.server_close()
        assert at_router == {"connections": 1, "requests": 200}
        owner = router.ring.node_for(run_key("add"))
        assert at_nodes[owner] == {"connections": 1, "requests": 200}
        assert all(c["connections"] <= at_router["connections"]
                   for c in at_nodes.values())

    def test_a_routed_hit_relays_the_stored_bytes(self, tmp_path):
        """Every corpus loop at Lev4 / issue 8: the routed hit's
        ``result`` is the owner node's, in-process ``engine.wait``'s and
        the committed grid's, and the router relayed the bytes the owner
        stored, undecoded."""
        from repro.experiments.sweep import strip_timings
        from repro.workloads import all_workloads

        grid = load_sweep()
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            httpd, router, url = serve_router_background(tc.urls)
            try:
                client = ServiceClient(url, timeout=120.0, retry=None)
                for w in all_workloads():
                    body = {"workload": w.name, "level": 4, "width": 8}
                    req = CellRequest.from_body(body, "run")
                    owner = router.ring.node_for(req.key)
                    engine = tc.engines[tc.urls.index(owner)]
                    assert client.run(w.name)["cache"] == "miss"
                    raw = client._call_raw("POST", "/v1/run", body)
                    stored = engine.store.get_raw(req.key)
                    assert b'"result": %s, ' % stored in raw
                    routed = json.loads(raw)
                    assert (routed["cache"], routed["routed_by"]) == (
                        "hit", owner)
                    at_owner = ServiceClient(owner, retry=None).run(w.name)
                    assert routed["result"] == at_owner["result"]
                    assert routed["result"] == engine.wait(
                        engine.submit_request(req))
                    want = strip_timings(grid.get(w.name, Level.LEV4, 8))
                    assert {k: routed["result"][k] for k in want} == want
            finally:
                httpd.shutdown()
                httpd.server_close()
        for node in tc.servers:
            node.server_close()

    def test_job_table_keeps_only_recent_finished_jobs(self, routed,
                                                       monkeypatch):
        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        client, router = routed
        ids = []
        for _ in range(4):
            ids.append(client.sweep(["add"], levels=[0], widths=[1]))
            client.wait_job(ids[-1], timeout=120.0)
        assert [router.job(j) is not None for j in ids] == [False] * 2 + [True] * 2
        with pytest.raises(ServiceRequestError) as ei:
            client.job(ids[0])
        assert ei.value.status == 404


# ---------------------------------------------------------------------------
# one identity, one dispatcher
# ---------------------------------------------------------------------------


class TestEveryHopAgreesOnIdentity:
    def test_router_client_node_engine_and_sweep_agree(self, tmp_path):
        """One body, four consumers: the router and a non-owner node
        pick the same owner, the owner's engine files the blob under the
        request's key, and ``run_sweep(store=)`` reads the key that
        differs from it only by kind."""
        import dataclasses

        from repro.experiments.sweep import run_sweep
        from repro.service.keys import request_identity
        from repro.service.store import ArtifactStore
        from repro.workloads import get_workload

        body = {"workload": "dotprod", "level": 4, "width": 8}
        req = CellRequest.from_body(body, "run")
        with ThreadCluster(n=3, store_root=tmp_path / "shards") as tc:
            httpd, router, url = serve_router_background(tc.urls)
            try:
                owner = router.ring.node_for(req.key)
                via_router = ServiceClient(url, retry=None)._call(
                    "POST", "/v1/run", body)
                other = next(u for u in tc.urls if u != owner)
                via_node = ServiceClient(other, retry=None)._call(
                    "POST", "/v1/run", body)
            finally:
                httpd.shutdown()
                httpd.server_close()
            assert (via_router["routed_by"], via_router["owner"]) == (
                owner, owner)
            assert (via_node["node"], via_node["forwarded"]) == (owner, True)
            assert [r["cache"] for r in (via_router, via_node)] == [
                "miss", "hit"]
            holds = [e.store.contains(req.key) for e in tc.engines]
            assert holds == [u == owner for u in tc.urls]

        store = ArtifactStore(tmp_path / "sweep")
        run_sweep([get_workload("dotprod")], (Level.LEV4,), (8,),
                  store=store)
        as_result = dataclasses.replace(req, kind="result")
        assert store.contains(as_result.key)
        assert not store.contains(req.key)
        ident = {kind: request_identity(kind, "dotprod", 4, 8)
                 for kind in ("run", "result")}
        assert {k for k in ident["run"]
                if ident["run"][k] != ident["result"][k]} == {"kind"}


class _FakePeer:
    """A node that answers every POST with a canned status and records
    the hop header it was sent."""

    def __init__(self, status=200):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        peer = self
        self.status, self.hops = status, []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers["Content-Length"]))
                peer.hops.append(self.headers.get("X-Repro-Hop"))
                data = (b'{"served": true}' if peer.status == 200
                        else b'{"error": "canned"}')
                self.send_response(peer.status)
                self.send_header("Content-Length", str(len(data)))
                if peer.status != 200:
                    self.send_header("Retry-After", "7")
                self.end_headers()
                self.wfile.write(data)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d" % self.httpd.server_address[1]
        threading.Thread(target=self.httpd.serve_forever,
                         daemon=True).start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestRingDispatcher:
    """The one ring walk, against fake peers (the end-to-end behavior
    is in TestRouter / test_chaos.py)."""

    @pytest.fixture
    def rig(self):
        from repro.cluster.launch import free_ports
        from repro.cluster.peers import RingDispatcher

        live = _FakePeer()
        dead = "http://127.0.0.1:%d" % free_ports(1)[0]
        failovers = []
        peers = RingDispatcher([dead, live.url],
                               on_failover=lambda: failovers.append(1))
        by_owner = {}
        for k in keys(64):
            by_owner.setdefault(peers.ring.node_for(k), k)
        yield peers, live, dead, by_owner, failovers
        live.close()

    def test_dead_owner_fails_over_with_hop_header(self, rig):
        peers, live, dead, by_owner, failovers = rig
        url, reply = peers.post("/v1/run", {}, by_owner[dead])
        assert url == live.url
        assert json.loads(reply) == {"served": True, "failover": True}
        assert live.hops == ["route"] and len(failovers) == 1

    def test_live_owner_gets_a_plain_request(self, rig):
        peers, live, _, by_owner, failovers = rig
        url, reply = peers.post("/v1/run", {}, by_owner[live.url])
        assert (url, reply) == (live.url, b'{"served": true}')
        assert live.hops == [None] and failovers == []

    @pytest.mark.parametrize("status", (429, 503, 400))
    def test_an_answer_is_relayed_not_failed_over(self, rig, status):
        from repro.service.client import ServiceOverloaded

        peers, live, _, by_owner, failovers = rig
        live.status = status
        with pytest.raises(ServiceRequestError) as ei:
            peers.post("/v1/run", {}, by_owner[live.url])
        assert ei.value.status == status and ei.value.retry_after == 7.0
        assert isinstance(ei.value, ServiceOverloaded) == (status == 429)
        assert live.hops == [None] and failovers == []

    def test_all_dead_is_service_unavailable(self, rig):
        from repro.service.client import ServiceUnavailable

        peers, live, dead, by_owner, failovers = rig
        live.close()
        with pytest.raises(ServiceUnavailable, match="no node reachable"):
            peers.post("/v1/run", {}, by_owner[dead])
        assert len(failovers) == 2

    def test_forwarding_is_the_one_hop_case(self, rig):
        from repro.service.client import ServiceUnavailable

        peers, live, dead, by_owner, _ = rig
        peers.post("/v1/run", {}, by_owner[live.url], owner_hop="forward",
                   max_hops=1)
        assert live.hops == ["forward"]
        with pytest.raises(ServiceUnavailable):
            peers.post("/v1/run", {}, by_owner[dead], owner_hop="forward",
                       max_hops=1)
        assert live.hops == ["forward"]  # never tried past the owner

    def test_fleet_views_mark_the_dead_node(self, rig):
        peers, live, dead, _, _ = rig
        views = peers.fleet("/healthz")
        assert set(views) == {dead, live.url} and views[dead] is None
        assert peers.metrics()[dead] == {"unreachable": True}
        assert peers.health()["nodes"][dead] is False


class TestRouterRelaysVerdicts:
    def test_unroutable_is_503_and_shed_keeps_its_retry_after(self):
        """Through the router's HTTP face: all nodes dead -> 503 (and
        counted), an owner's 429 -> 429 with the owner's Retry-After."""
        from repro.cluster.launch import free_ports
        from repro.service.client import ServiceOverloaded

        shedding = _FakePeer(status=429)
        dead = "http://127.0.0.1:%d" % free_ports(1)[0]
        rigs = [serve_router_background([u]) for u in (dead, shedding.url)]
        try:
            with pytest.raises(ServiceRequestError) as ei:
                ServiceClient(rigs[0][2], retry=None).run("add")
            assert ei.value.status == 503
            assert rigs[0][1].snapshot()["unroutable"] == 1
            with pytest.raises(ServiceOverloaded) as ei:
                ServiceClient(rigs[1][2], retry=None).run("add")
            assert (ei.value.status, ei.value.retry_after) == (429, 7.0)
            assert shedding.hops == [None]
        finally:
            shedding.close()
            for httpd, _, _ in rigs:
                httpd.shutdown()
                httpd.server_close()
