"""Async job engine: single-flight, batching, admission control.

The engine owns an asyncio event loop on a background thread plus the
sweep engine's ``fork``-based :class:`ProcessPoolExecutor`.  Requests
enter from any thread (HTTP handler threads, the client-side of tests)
via :meth:`JobEngine.submit`; results flow back through
``concurrent.futures`` bridges.

Request lifecycle::

    submit ──store lookup──hit──▶ done (cache="hit")
                │ miss
                ▼
            admission ──full──▶ Overloaded (shed, HTTP 429)
                │ admitted (onto the loop)
                ▼
         single-flight table ──in flight──▶ join
                │ new
                ▼
         cell batch (workload, level, ...) ── worker slot free ──▶ one
         width-sharded compilation on the process pool ──▶ store.put
         per width ──▶ resolve every joined future

* **A stored result is answered before admission** —
  :meth:`JobEngine.submit_request` reads the store on the calling
  thread (the store handle is locked): a hit is filed as a finished job
  holding the stored payload's bytes (``Job.raw``, which the HTTP server
  splices into its reply undecoded) and counted there, whatever the
  queue depth.  Only a miss is admitted and handed to the loop.  A
  sweep's cells are looked up on the loop.
* **Requests are values** — every request is a validated
  :class:`~repro.service.keys.CellRequest` (a sweep a
  :class:`~repro.service.keys.SweepRequest`) built once by the caller;
  the engine never re-assembles identity from loose fields.
* **Single-flight** — identical requests (same ``CellRequest.key``)
  submitted while one is in flight await the same future; only one
  computation runs.
* **Batching** — requests that differ *only in issue width* land in the
  same *cell* (one (workload, level, seed, flags, disable) unit).  There
  is no timer: the first request starts the cell's fire task, which
  waits for one of ``jobs`` worker slots and only then closes the cell.
  With a worker idle a lone miss is dispatched on the next loop turn; a
  sweep's widths still share the cell (they all join before the task
  runs); while every worker is busy the cell stays open and a later
  width joins it.  Widths that reach an idle engine as separate
  requests (a router fanning a sweep out width by width) do not wait
  for each other: the first compiles alone, and those arriving while
  it runs share the next cell.  Everything in the cell is compiled once and
  scheduled per width — the same width-sharding the sweep engine uses
  (``TransformedKernel.clone``).
* **Admission control, tiered** — at most ``max_pending`` accepted-but-
  unfinished configurations; past that, a new miss is *shed*
  (:class:`Overloaded`, surfaced as HTTP 429) and the caller's retry
  policy decides when to ask again.  Shedding is tiered: expensive
  sweep requests are shed earlier, at 75% of ``max_pending``, keeping
  headroom so cheap single requests survive a burst.  A sweep request
  is admitted or shed atomically for all the configurations it expands
  to, so one oversized sweep cannot wedge the queue.
* **Timeouts** — each request carries a deadline
  (``default_timeout`` unless overridden), stamped and enforced on
  ``time.monotonic()`` so an NTP/wall-clock step can neither expire a
  fresh job nor keep a dead one alive; expiry fails *that waiter*
  with :class:`RequestTimeout` while the underlying computation is left
  to finish and populate the store (process-pool work is not
  cancellable mid-kernel).  Wall-clock timestamps appear only in the
  ``/v1/jobs/<id>`` display fields.
* **Supervised execution** — the fork pool runs under the resilience
  layer's :class:`~repro.resilience.supervisor.SupervisedPool`: a
  worker lost to a crash or hang is replaced and the cell re-dispatched
  (deduplicated by canonical request key), and a cell that keeps
  failing trips its circuit breaker — further requests for it fail
  fast (:class:`~repro.resilience.supervisor.CellQuarantined`, HTTP
  503) until the cooldown's half-open probe heals it.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..harness import evaluate_cell
from ..ir.printer import format_block
from ..machine import MachineConfig
from ..passes import PassOptions
from ..pipeline import Level
from ..resilience import faults
from ..resilience.supervisor import CellQuarantined, SupervisedPool
from ..workloads import get_workload
from .keys import CellRequest, SweepRequest
from .store import ArtifactStore


class Overloaded(RuntimeError):
    """Admission control rejected the request (HTTP 429)."""


class RequestTimeout(RuntimeError):
    """The request's deadline expired before its result was ready."""


# ---------------------------------------------------------------------------
# the process-pool worker (module-level: must pickle under fork)
# ---------------------------------------------------------------------------


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def compute_cell(task: tuple) -> list[dict]:
    """Compile one (workload, level) cell for several widths; optionally
    simulate.  The work is :func:`repro.harness.evaluate_cell` — the same
    width-sharded, execute-once/replay-per-width evaluation the sweep
    uses; this packs it into the service's payloads.
    """
    kind, name, level_int, widths, seed, check, check_ir, disable = task
    simulate = kind == "run"
    cell = evaluate_cell(
        get_workload(name), Level(level_int),
        [MachineConfig(issue_width=wd) for wd in widths],
        seed=seed, check=check, check_ir=check_ir,
        options=PassOptions(disable=tuple(disable)) if disable else None,
        execute=simulate,
    )
    out: list[dict] = []
    for ck, usage, run, _ in cell:
        payload = {
            "kind": kind,
            "workload": name,
            "level": level_int,
            "width": ck.machine.issue_width,
            "inner_makespan": ck.inner_makespan,
            "int_regs": usage.int_regs,
            "fp_regs": usage.fp_regs,
            "static_instructions": sum(len(b.instrs) for b in ck.func.blocks),
            "unroll_factor": ck.report.unroll_factor,
        }
        if simulate:
            payload.update(
                cycles=run.cycles,
                instructions=run.instructions,
                checked=bool(check),
                seed=seed,
                scalars=dict(run.scalars),
                array_digests={k: _array_digest(v)
                               for k, v in sorted(run.arrays.items())},
            )
        else:
            payload["ir"] = format_block(ck.sb.body)
        out.append(payload)
    return out


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One accepted request (or sweep of requests) and its outcome.

    Clock discipline: the *deadline* is enforced on ``time.monotonic()``
    (``deadline_mono``, stamped at admission) so an NTP step can neither
    expire a fresh job nor keep a dead one alive.  ``created`` /
    ``finished`` are wall-clock and exist **only** for display in
    ``/v1/jobs/<id>`` responses; nothing is computed from them —
    ``elapsed_s`` comes from the monotonic clock.
    """

    id: str
    kind: str
    request: dict
    state: str = "queued"        # queued | running | done | failed | timeout
    cache: Optional[str] = None  # hit | miss | joined (single-flight)
    result: Optional[dict] = None
    #: a store hit's payload as stored (JSON bytes); ``result`` stays None
    raw: Optional[bytes] = None
    error: Optional[str] = None
    #: wall-clock timestamps, display only (never used for deadlines)
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    #: monotonic admission stamp and hard deadline (enforcement)
    created_mono: float = field(default_factory=time.monotonic)
    deadline_mono: Optional[float] = None
    elapsed_s: Optional[float] = None
    #: bridge to the waiting thread
    future: Optional["asyncio.Future"] = None

    def remaining_s(self) -> Optional[float]:
        """Monotonic time left before the deadline (None = no deadline)."""
        if self.deadline_mono is None:
            return None
        return self.deadline_mono - time.monotonic()

    def finish(self, state: str, error: Optional[str] = None) -> None:
        """Enter a final state and stamp when."""
        self.finished = time.time()  # display only
        self.elapsed_s = round(time.monotonic() - self.created_mono, 6)
        self.error, self.state = error, state

    def as_dict(self) -> dict:
        return {
            "id": self.id, "kind": self.kind, "request": self.request,
            "state": self.state, "cache": self.cache,
            "result": self.result if self.raw is None else json.loads(self.raw),
            "error": self.error, "created": self.created,
            "finished": self.finished, "elapsed_s": self.elapsed_s,
        }


#: finished jobs a table keeps for ``GET /v1/jobs/<id>``; beyond it the
#: oldest finished ones are dropped (and answer 404 like unknown ids)
MAX_FINISHED_JOBS = 1024


class JobTable:
    """Thread-safe id -> job record map that a long-lived server can
    afford: every unfinished job plus the :data:`MAX_FINISHED_JOBS` most
    recently finished ones (shared by :class:`JobEngine` and the cluster
    router)."""

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._lock = threading.Lock()
        self._jobs: dict[str, object] = {}
        self._finished: deque[str] = deque()
        #: jobs ever added (monotone; the ``jobs_total`` metric)
        self.total = 0

    def add(self, make):
        """Mint the next id and file ``make(id)`` under it."""
        with self._lock:
            self.total += 1
            jid = f"{self._prefix}-{self.total:06d}"
            job = self._jobs[jid] = make(jid)
        return job

    def get(self, jid: str):
        with self._lock:
            return self._jobs.get(jid)

    def finish(self, jid: str) -> None:
        """The job reached a final state: it becomes evictable."""
        with self._lock:
            self._finished.append(jid)
            while len(self._finished) > MAX_FINISHED_JOBS:
                self._jobs.pop(self._finished.popleft(), None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)


class JobEngine:
    """The service's execution core (shared by server and tests)."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int = 1,
        max_pending: int = 64,
        default_timeout: float = 120.0,
    ):
        self.store = store
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        # the supervised pool forks its workers in its constructor —
        # before the loop / HTTP threads exist, since forking a
        # many-threaded process risks inheriting held locks.  The worker
        # deadline mirrors the request deadline: a cell the request
        # layer has given up on should not pin a worker forever.
        self._pool = SupervisedPool(jobs, deadline_s=default_timeout)
        #: one per worker: a cell holds one from dispatch to its answer
        self._slots = asyncio.Semaphore(jobs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-service-loop", daemon=True)
        self._thread.start()
        self._lock = threading.Lock()
        self._pending = 0           # accepted, unfinished configurations
        self._jobs = JobTable("job")
        # loop-confined state (touched only on the loop thread)
        self._inflight: dict[str, asyncio.Future] = {}
        #: cell id -> {width: (request, future)}: the width-compatible
        #: requests of a batch awaiting one compilation
        self._cells: dict[tuple, dict[int, tuple]] = {}
        # metrics
        self.counters = {
            "requests": 0, "hits": 0, "misses": 0, "joined": 0,
            "batched_cells": 0, "computed": 0, "shed": 0, "timeouts": 0,
            "errors": 0, "sweeps": 0,
        }
        self._latencies: deque[float] = deque(maxlen=2048)
        self._closed = False

    # -- admission ------------------------------------------------------

    def _admit(self, n: int, kind: str = "single") -> None:
        # tiered shedding: a sweep (n configurations at once) is shed at
        # 75% of max_pending, keeping headroom for cheap single requests
        limit = (max(1, (self.max_pending * 3) // 4) if kind == "sweep"
                 else self.max_pending)
        with self._lock:
            if self._pending + n > limit:
                self.counters["shed"] += 1
                raise Overloaded(
                    f"queue full: {self._pending} pending + {n} requested "
                    f"> {limit} {kind} capacity"
                )
            self._pending += n
            # counted here because HTTP handler threads race on them
            self.counters["requests"] += 1
            if kind == "sweep":
                self.counters["sweeps"] += 1

    def _release(self, n: int) -> None:
        with self._lock:
            self._pending -= n

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._pending

    # -- submission (any thread) ---------------------------------------

    def _start(self, kind: str, request: CellRequest | SweepRequest,
               work, n: int) -> Job:
        """File an admitted request (``n`` configurations) as a job and
        start ``work(job)`` on the engine loop."""
        job = self._jobs.add(lambda jid: Job(jid, kind, request.to_body()))
        job.deadline_mono = time.monotonic() + (
            request.timeout if request.timeout is not None
            else self.default_timeout)
        job.future = asyncio.run_coroutine_threadsafe(
            self._handle(job, work(job), n), self._loop
        )
        return job

    def submit(self, kind: str, workload: str, level: int, width: int,
               **options) -> Job:
        """:meth:`submit_request` from loose fields (``seed``, ``check``,
        ``check_ir``, ``disable``, ``timeout``); anything
        :class:`CellRequest` rejects — unknown workload, level or pass
        name — raises ``ValueError`` before admission."""
        return self.submit_request(
            CellRequest(kind, workload, int(level), int(width), **options))

    def submit_request(self, req: CellRequest) -> Job:
        """One compile/run request.  A store hit returns a finished Job
        holding the payload bytes (``raw``), answered on this thread
        whatever the queue depth; a miss is admitted (or shed with
        :class:`Overloaded`) and the Job's ``future`` resolves to the
        result payload."""
        t0 = time.perf_counter()
        raw = self.store.get_raw(req.key) if self.store is not None else None
        if raw is None:
            self._admit(1)
            return self._start(
                req.kind, req,
                lambda job: self._request(
                    req, functools.partial(setattr, job, "cache"),
                    lookup=False), 1)
        job = self._jobs.add(lambda jid: Job(jid, req.kind, req.to_body(),
                                             cache="hit", raw=raw))
        job.finish("done")
        self._jobs.finish(job.id)
        with self._lock:
            self.counters["requests"] += 1
            self.counters["hits"] += 1
        self._latencies.append(time.perf_counter() - t0)
        return job

    def submit_sweep(self, sweep: SweepRequest) -> Job:
        """Admit a grid of run requests atomically (all or shed)."""
        self._admit(sweep.configs, "sweep")
        return self._start("sweep", sweep, lambda job: self._sweep(sweep),
                           sweep.configs)

    def job(self, job_id: str) -> Job | None:
        """The job's record — None for an unknown id or a finished job
        old enough to have been evicted."""
        return self._jobs.get(job_id)

    def wait(self, job: Job, timeout: float | None = None) -> dict:
        """Block until the job resolves; raises its failure if any."""
        if job.raw is not None:
            return json.loads(job.raw)
        return job.future.result(timeout)

    # -- request handling (loop thread) --------------------------------

    async def _handle(self, job: Job, work, n: int) -> dict:
        """Run ``work`` (the job's coroutine, ``n`` admitted
        configurations) under the job's deadline and record its fate."""
        t0 = time.perf_counter()
        job.state = "running"
        try:
            # the deadline was stamped on the monotonic clock at
            # admission; a wall-clock (NTP) step between then and now
            # cannot stretch or shrink it
            job.result = await asyncio.wait_for(work, job.remaining_s())
            job.finish("done")
            return job.result
        except asyncio.TimeoutError:
            job.finish("timeout", "deadline expired")
            self.counters["timeouts"] += 1
            self.counters["errors"] += 1
            raise RequestTimeout(f"{job.id}: deadline expired") from None
        except Exception as e:
            job.finish("failed", repr(e))
            self.counters["errors"] += 1
            raise
        finally:
            self._latencies.append(time.perf_counter() - t0)
            self._release(n)
            self._jobs.finish(job.id)

    async def _sweep(self, sweep: SweepRequest) -> dict:
        # hits are this sweep's own cells' dispositions, not a delta of
        # the engine-wide counter other requests bump meanwhile
        seen: list[str] = []
        results = await asyncio.gather(
            *(self._request(c, seen.append) for c in sweep.cells()))
        return {
            "configs": len(results),
            "hits": seen.count("hit"),
            "results": sorted(
                results,
                key=lambda r: (r["workload"], r["level"], r["width"]),
            ),
        }

    async def _request(self, req: CellRequest, disposition,
                       lookup: bool = True) -> dict:
        """Resolve one configuration: store (unless the caller already
        missed it), single-flight, or batch; ``disposition`` is told
        which (hit | joined | miss) up front."""
        key = req.key
        if lookup and self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                with self._lock:
                    self.counters["hits"] += 1
                disposition("hit")
                return cached
        self.counters["misses"] += 1
        shared = self._inflight.get(key)
        if shared is not None:
            self.counters["joined"] += 1
            disposition("joined")
            return await asyncio.shield(shared)
        disposition("miss")
        fut = self._join_cell(req)
        self._inflight[key] = fut
        try:
            return await asyncio.shield(fut)
        finally:
            if self._inflight.get(key) is fut:
                del self._inflight[key]

    def _join_cell(self, req: CellRequest) -> "asyncio.Future":
        """Attach a request to its cell batch, starting the cell's fire
        task on first join; returns the future for this request's width."""
        waiters = self._cells.get(req.cell)
        if waiters is None:
            waiters = self._cells[req.cell] = {}
            self._loop.create_task(self._fire_cell(req.cell))
        if req.width not in waiters:
            waiters[req.width] = (req, self._loop.create_future())
        return waiters[req.width][1]

    async def _fire_cell(self, cell_id: tuple) -> None:
        # the cell stays open, and later widths join it, until a worker
        # slot is free; the slot is held until the pool answers
        async with self._slots:
            waiters = self._cells.pop(cell_id)
            widths = tuple(sorted(waiters))
            # the cell's canonical identity is its lowest-width request:
            # the supervisor dedups re-dispatches by its key, and the
            # breaker quarantines on the (workload, level) coordinate
            head = waiters[widths[0]][0]
            task = (head.kind, head.workload, head.level, widths, head.seed,
                    head.check, head.check_ir, head.disable)
            self.counters["batched_cells"] += 1
            try:
                payloads = await asyncio.wrap_future(
                    self._pool.submit(compute_cell, task, key=head.key,
                                      cell=(head.workload, head.level))
                )
            except Exception as e:
                for _, fut in waiters.values():
                    if not fut.done():
                        fut.set_exception(e)
                return
        self.counters["computed"] += len(payloads)
        for payload in payloads:
            req, fut = waiters[payload["width"]]
            if self.store is not None:
                self.store.put(req.key, payload)
            if not fut.done():
                fut.set_result(payload)

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict:
        lats = sorted(self._latencies)

        def pct(p: float) -> float:
            if not lats:
                return 0.0
            return lats[min(len(lats) - 1, int(p * len(lats)))]

        m = dict(self.counters)
        m.update(
            queue_depth=self.queue_depth,
            latency_p50_s=round(pct(0.50), 6),
            latency_p95_s=round(pct(0.95), 6),
            jobs_total=self._jobs.total,
        )
        if self.store is not None:
            m["store"] = {
                "entries": len(self.store),
                "bytes": self.store.total_bytes(),
                **self.store.stats.as_dict(),
            }
        m["resilience"] = {
            **self._pool.counters,
            "breaker_trips": self._pool.breaker_trips,
        }
        if faults.ARMED is not None:
            m["faults"] = {"injected": dict(faults.ARMED.injected)}
        return m

    def health(self) -> dict:
        """The /healthz payload: liveness plus watchdog/breaker state."""
        return {
            "ok": True,
            "queue_depth": self.queue_depth,
            "pool": self._pool.status(),
        }

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._pool.close()
        self._loop.close()
