"""``serve``: the HTTP path.  A fresh 3-node in-process cluster behind the
router, empty stores; every corpus loop at Lev4 / issue 8.

* first touch: one ``POST /v1/run`` per loop, one client — router ->
  owner node -> job engine -> batch window -> fork worker -> compile ->
  store put;
* warm-up: untimed hits, past the fast first-requests regime;
* steady: blocks of timed hits (a block is the unit of time) drawn seeded from the same configs,
  closed loop, ``min(2, nproc)`` clients — router -> owner node -> job
  engine -> store.

Every reply is held against the committed grid cell.
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time
from contextlib import contextmanager

from repro.cluster.launch import ThreadCluster
from repro.cluster.router import serve_router_background
from repro.service.client import (
    ServiceClient, ServiceRequestError, ServiceUnavailable,
)
from repro.service.jobs import JobEngine, compute_cell
from repro.service.keys import request_key
from repro.service.server import serve_background
from repro.service.store import ArtifactStore

from common import (
    DATA_SEED, Rep, corpus, reference_rows, scratch_dir, start_timing,
)
from spans import NULL
from stats import median, percentile

NAME = "serve"
LEVEL, WIDTH = 4, 8
REPLY_FIELDS = ("cycles", "instructions", "int_regs", "fp_regs")
CLIENTS = min(2, os.cpu_count() or 1)


@contextmanager
def prepare(profile, seed, scratch=None):
    names = [w.name for w in corpus(profile.corpus, seed)]
    reference = reference_rows()
    with scratch_dir(scratch) as tmp:
        cluster = ThreadCluster(n=3, store_root=tmp / "shards")
        httpd = None
        try:
            httpd, router, url = serve_router_background(cluster.urls)
            yield {
                "names": names, "seed": seed, "profile": profile,
                "want": {n: reference[(n, LEVEL, WIDTH)] for n in names},
                "cluster": cluster, "router": router, "url": url, "tmp": tmp,
            }
        finally:
            # always: a failed repetition must not leave fork workers behind
            if httpd is not None:
                httpd.shutdown()
                httpd.server_close()
            cluster.close()
            for node in cluster.servers:
                node.server_close()


class _Caller:
    """One closed-loop client: issues a request, checks the reply."""

    def __init__(self, state, rep: Rep, lock: threading.Lock, url=None):
        self.client = ServiceClient(url or state["url"], timeout=120.0,
                                    retry=None)
        self.want = state["want"]
        self.rep = rep
        self.lock = lock

    def call(self, tr, span: str, name: str, expect_cache: str) -> float:
        t0 = time.perf_counter()
        try:
            with tr.span(span):
                reply = self.client.run(name, level=LEVEL, width=WIDTH,
                                        seed=DATA_SEED)
            bad = reply_mismatch(reply, self.want[name], expect_cache)
        except (ServiceRequestError, ServiceUnavailable) as e:
            bad = f"{name}: {e}"
        dt = time.perf_counter() - t0
        with self.lock:
            self.rep.attempted += 1
            if bad:
                self.rep.fail(bad)
        return dt


def reply_mismatch(reply: dict, want: dict, expect_cache: str) -> str | None:
    """What is wrong with a ``/v1/run`` reply (None = nothing)."""
    if reply.get("cache") != expect_cache:
        return (f"{want['workload']}: cache {reply.get('cache')!r}, "
                f"expected {expect_cache!r}")
    result = reply.get("result") or {}
    for f in REPLY_FIELDS:
        if result.get(f) != want[f]:
            return (f"{want['workload']}: {f} got {result.get(f)!r}, "
                    f"want {want[f]!r}")
    return None


def _closed_loop(state, rep, lock, tr, span, n_requests, seed) -> list[float]:
    """``n_requests`` hits split over the client threads; each thread
    sends its next request when the previous reply has been checked."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]

    def client(k: int) -> None:
        caller = _Caller(state, rep, lock)
        rng = random.Random(seed * 1000 + k)
        for _ in range(n_requests // CLIENTS):
            latencies[k].append(
                caller.call(tr, span, rng.choice(state["names"]), "hit"))

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [x for per in latencies for x in per]


def measure(state, tracer=None) -> Rep:
    rep = Rep(NAME)
    tr = tracer if tracer is not None else NULL
    lock = threading.Lock()
    profile, seed = state["profile"], state["seed"]

    first = _Caller(state, rep, lock)
    for name in state["names"]:
        gc.collect()
        rep.timed("first", name, 1, first.call(tr, "router.miss", name, "miss"))
    rep.model_cycles = sum(w["cycles"] for w in state["want"].values())

    _closed_loop(state, rep, lock, NULL, "", profile.warmup, seed + 1)

    latencies: list[float] = []
    for block in range(profile.blocks):
        t0 = start_timing()
        got = _closed_loop(state, rep, lock, tr, "router.hit",
                           profile.block, seed * 64 + block)
        rep.timed("steady", "hits", len(got), time.perf_counter() - t0)
        latencies += got

    if tracer is not None:
        ms = [1e3 * x for x in latencies]
        # spans of the client threads overlap: the traced region is one
        # client's misses plus the hit blocks of each of CLIENTS
        client_s = (sum(sum(v) for v in rep.first.values())
                    + CLIENTS * sum(rep.steady["hits"]))
        rep.layers = {"serve.p50_ms": median(ms),
                      "serve.p95_ms": percentile(ms, 95.0)[0],
                      "trace.coverage": tracer.self_seconds()[1] / client_s}
        rep.layers.update(_nested(state, rep, lock))
    return rep


def _p50_ms(fn, names, n: int) -> float:
    samples = []
    for i in range(n):
        t0 = time.perf_counter()
        fn(names[i % len(names)])
        samples.append(time.perf_counter() - t0)
    return 1e3 * median(samples)


def _nested(state, rep, lock) -> dict:
    """Off-path: the same request through each layer alone, one client.
    A hop is the difference of two adjacent layers' medians."""
    names, n = state["names"], state["profile"].nested
    cluster, router = state["cluster"], state["router"]
    out = {}

    # the miss side on a job engine of its own, then hits on its store
    store_dir = state["tmp"] / "jobs-store"
    engine = JobEngine(store=ArtifactStore(store_dir))
    try:
        def submit(name, expect):
            job = engine.submit("run", name, LEVEL, WIDTH, seed=DATA_SEED)
            result = engine.wait(job, 120.0)
            reply = {"cache": job.cache, "result": result}
            bad = reply_mismatch(reply, state["want"][name], expect)
            with lock:
                rep.attempted += 1
                if bad:
                    rep.fail(f"jobs: {bad}")

        t0 = time.perf_counter()
        for name in names:
            submit(name, "miss")
        out["jobs.miss_ms"] = 1e3 * (time.perf_counter() - t0) / len(names)
        out["jobs.hit_ms"] = _p50_ms(lambda nm: submit(nm, "hit"), names, n)
    finally:
        engine.close()

    # the same cells computed in this process: what a miss costs without
    # the batch window, the pool round trip and the put
    t0 = time.perf_counter()
    for name in names:
        compute_cell(("run", name, LEVEL, (WIDTH,), DATA_SEED, True, False, ()))
    out["jobs.compute_cell_ms"] = 1e3 * (time.perf_counter() - t0) / len(names)
    out["jobs.miss_overhead_ms"] = (out["jobs.miss_ms"]
                                    - out["jobs.compute_cell_ms"])

    # one plain server over the warmed store
    httpd, srv_engine, url = serve_background(store_dir=store_dir)
    try:
        caller = _Caller(state, rep, lock, url)
        out["server.hit_ms"] = _p50_ms(
            lambda nm: caller.call(NULL, "", nm, "hit"), names, n)
    finally:
        httpd.shutdown()
        httpd.server_close()
        srv_engine.close()
    out["server.http_hop_ms"] = out["server.hit_ms"] - out["jobs.hit_ms"]

    # the cluster's nodes directly: owner, then a node that must forward
    owner = {nm: router.ring.node_for(
                 request_key("run", nm, LEVEL, WIDTH, seed=DATA_SEED))
             for nm in names}
    callers = {u: _Caller(state, rep, lock, u) for u in cluster.urls}

    def via_owner(nm):
        callers[owner[nm]].call(NULL, "", nm, "hit")

    def via_other(nm):
        other = next(u for u in cluster.urls if u != owner[nm])
        callers[other].call(NULL, "", nm, "hit")

    via_router = _Caller(state, rep, lock)
    out["node.hit_ms"] = _p50_ms(via_owner, names, n)
    out["node.forward_hop_ms"] = (_p50_ms(via_other, names, n)
                                  - out["node.hit_ms"])
    out["router.hit_ms"] = _p50_ms(
        lambda nm: via_router.call(NULL, "", nm, "hit"), names, n)
    out["router.hop_ms"] = out["router.hit_ms"] - out["node.hit_ms"]

    # what the cluster's own engines saw over the whole repetition
    for c in ("hits", "misses", "joined", "batched_cells", "computed",
              "shed", "errors"):
        out[f"jobs.{c}"] = sum(e.counters[c] for e in cluster.engines)
    snap = router.snapshot()
    for c in ("routed", "failovers", "unroutable"):
        out[f"router.{c}"] = snap[c]
    return out
