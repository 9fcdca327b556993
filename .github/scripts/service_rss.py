"""CI retention probe for the compilation service.

Expects the ``repro serve`` of the ``service`` job still running (after
``service_smoke.py``, so the workers are warm).  Sends distinct-seed
``/v1/run`` requests — every one a store miss that a pool worker has to
compile and simulate — and fails if the workers' resident memory grew
by more than a few megabytes: a worker may keep bounded, value-keyed
memos (DESIGN.md §11.2), never something per request.  Worker pids come
from ``/healthz``'s pool status, RSS from ``/proc/<pid>/statm``.
"""

import os
import sys

from repro.service.client import ServiceClient

URL = "http://127.0.0.1:8734"
#: a loop whose Lev4 programs are large: a worker that kept each
#: request's set-up would grow by about half a megabyte per request
WORKLOAD = "NAS-5"
REQUESTS = 150
LIMIT_MB = 15.0


def workers_rss_mb(client: ServiceClient) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for w in client.healthz()["pool"]["workers"]:
        with open(f"/proc/{w['pid']}/statm") as f:
            total += int(f.read().split()[1]) * page
    return total / 1e6


def main() -> int:
    c = ServiceClient(URL, timeout=120.0)
    c.run(WORKLOAD, level=4, width=8, seed=9_999)  # first miss: warm-up
    before = workers_rss_mb(c)
    for i in range(REQUESTS):
        r = c.run(WORKLOAD, level=4, width=8, seed=10_000 + i)
        assert r["cache"] == "miss", f"seed {10_000 + i}: {r['cache']!r}"
    grew = workers_rss_mb(c) - before
    print(f"service rss: workers grew {grew:+.1f} MB over {REQUESTS} "
          f"distinct-seed misses (limit {LIMIT_MB} MB)")
    return 1 if grew > LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())
