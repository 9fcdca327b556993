"""repro.service — the compilation service subsystem.

Turns the compiler + simulator into an inference-stack-shaped server:
requests in, cached or freshly computed artifacts out.

* :mod:`repro.service.keys` — the canonical configuration identity:
  one request type (``CellRequest`` / ``SweepRequest``, validated once
  where a request enters) and one key function behind the sweep's
  resume, the content-addressed store, the job engine's single-flight
  table and the cluster ring, so they can never disagree on what "same
  configuration" means.
* :mod:`repro.service.store` — a content-addressed on-disk artifact
  store (SHA-256 keys over canonicalized kernel source + machine
  config + level + disable set + code-version salt) with atomic
  writes, LRU size-capped eviction, and corruption-tolerant reads of
  blobs that hold the payload's JSON bytes verbatim behind a checked
  header line.
* :mod:`repro.service.jobs` — the async job engine: store hits
  answered on the caller's thread before admission, single-flight
  deduplication of identical in-flight requests, batching of compatible
  requests onto one width-sharded compilation, a bounded queue that
  sheds a miss past capacity (HTTP 429), per-request timeouts.
* :mod:`repro.service.wire` — the HTTP/1.1 head reader both sides use,
  and the splice that lets a hop add fields to a reply it relays
  undecoded.
* :mod:`repro.service.server` — an HTTP front-end on stdlib
  ``ThreadingHTTPServer``: ``POST /v1/compile``, ``POST /v1/run``,
  ``POST /v1/sweep``, ``GET /v1/jobs/<id>``, ``GET /healthz``,
  ``GET /metrics``, over persistent HTTP/1.1 connections.
* :mod:`repro.service.client` — a small SDK over a plain socket used
  by ``repro submit``, ``examples/service_client.py`` and every cluster
  hop: one persistent connection per (client, thread), probed before
  reuse and replaced if the server closed it, a request never resent
  by the transport.

Entry points: ``python -m repro serve`` / ``python -m repro submit``.
"""

from .keys import (
    CODE_VERSION,
    CellRequest,
    SweepRequest,
    canonical_json,
    request_identity,
    request_key,
    workload_fingerprint,
)
from .store import ArtifactStore, StoreStats

__all__ = [
    "CODE_VERSION", "CellRequest", "SweepRequest", "canonical_json", "request_identity", "request_key",
    "workload_fingerprint",
    "ArtifactStore", "StoreStats",
]
