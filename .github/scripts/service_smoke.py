"""CI smoke for the compilation service.

Expects ``python -m repro serve --port 8734 --store ... --max-pending 8``
already running (the workflow starts it in the background).  Drives six
mixed requests through the client SDK — two fresh runs, a duplicate
that must be answered from the artifact store, a compile, an async
sweep job (whose four configurations must compile as two cells on a
fresh store), and an oversized sweep that must be load-shed — then the
bad-request probe (six requests no worker could compute — an unknown
``disable`` entry, a negative or oversized ``seed`` — are six 400s and
leave the cell servable), then 100 store hits from the same client,
then the three hostile heads of ``hostile_heads.py`` (each must be a
JSON 4xx that closes its connection), then scrapes ``/metrics`` and
fails on any nonzero service-side error count or on connections not
being reused (``http.requests / http.connections`` under 10 — a count,
not a clock).
"""

import sys
import time

from hostile_heads import check_hostile_heads
from repro.service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
    ServiceUnavailable,
)

URL = "http://127.0.0.1:8734"


def main() -> int:
    c = ServiceClient(URL, timeout=120.0)
    for _ in range(100):
        try:
            c.healthz()
            break
        except ServiceUnavailable:
            time.sleep(0.2)
    else:
        print(f"no service at {URL}", file=sys.stderr)
        return 1

    # 1-2: two fresh configurations (compile + simulate + NumPy check)
    r1 = c.run("dotprod", level=4, width=8)
    assert r1["result"]["cycles"] > 0 and r1["result"]["checked"] is True
    r2 = c.run("sum", level=3, width=4)
    assert r2["result"]["cycles"] > 0

    # 3: exact duplicate of (1) — must be served from the artifact store
    dup = c.run("dotprod", level=4, width=8)
    assert dup["cache"] == "hit", f"expected a store hit, got {dup['cache']!r}"
    assert dup["result"] == r1["result"], "cached result differs"

    # 4: compile-only request returns scheduled IR, no simulation
    r4 = c.compile("add", level=2, width=8)["result"]
    assert "MEM(" in r4["ir"] and "cycles" not in r4

    # 5: async sweep job, polled to completion; on a fresh store its two
    # cells compile once each for both widths (a count, not a clock)
    m0 = c.metrics()
    jid = c.sweep(["add"], levels=[0, 4], widths=[1, 8])
    rec = c.wait_job(jid, timeout=120.0)
    assert rec["result"]["configs"] == 4
    if rec["result"]["hits"] == 0:
        m5 = c.metrics()
        counts = {k: m5[k] - m0[k] for k in ("batched_cells", "computed")}
        if counts != {"batched_cells": 2, "computed": 4}:
            print(f"sweep widths were not batched per cell: {counts}",
                  file=sys.stderr)
            return 1

    # 6: oversized sweep (80 configs > --max-pending 8) — must be shed
    # atomically as HTTP 429, and must not wedge the service
    try:
        c.sweep(["add", "sum", "maxval", "merge"])
    except ServiceOverloaded:
        pass
    else:
        print("oversized sweep was accepted instead of shed", file=sys.stderr)
        return 1
    assert c.healthz()["ok"] is True

    # 7: what no worker could compute is rejected at the boundary — it
    # must never reach a worker, so it cannot quarantine the healthy cell
    for bad in ({"disable": ["nope"]}, {"seed": -1}, {"seed": 1 << 64}) * 2:
        try:
            c.run("maxval", level=4, width=8, **bad)
        except ServiceRequestError as e:
            assert e.status == 400, f"{bad} answered {e.status}"
        else:
            print(f"malformed request {bad} was accepted", file=sys.stderr)
            return 1
    assert c.run("maxval", level=4, width=8)["result"]["cycles"] > 0, \
        "cell unservable after malformed requests"

    # 8: 100 store hits from this one client ride its kept-alive connection
    for _ in range(100):
        assert c.run("dotprod", level=4, width=8)["cache"] == "hit"

    # 9: heads that cannot be framed are one JSON 4xx and a close each
    problems = check_hostile_heads(URL)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    m = c.metrics()
    print(f"metrics: {m}")
    assert m["hits"] >= 1, "the duplicate request never hit the store"
    assert m["shed"] >= 1, "the oversized sweep was never counted as shed"
    if m["errors"]:
        print(f"service reported {m['errors']} error(s)", file=sys.stderr)
        return 1
    http = m["http"]
    if http["requests"] < 10 * http["connections"]:
        print(f"connections are not reused: {http}", file=sys.stderr)
        return 1
    print("service smoke: ok "
          f"({m['requests']} requests, {m['hits']} hits, {m['shed']} shed, "
          f"{http['requests']} HTTP requests over {http['connections']} "
          "connection(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
