"""Supervised fork worker pool: heartbeats, deadlines, re-dispatch.

The sweep engine and the job engine both fan work out over ``fork``-ed
worker processes.  The plain :class:`ProcessPoolExecutor` they used
treats one dead worker as the end of the world: every pending future
fails with ``BrokenProcessPool`` and hours of grid results die with a
single OOM-kill.  :class:`SupervisedPool` keeps the same fork-pool
shape (workers inherit the parent's warm caches and
``PYTHONHASHSEED``) and adds supervision:

* **Per-worker channels.**  Each worker owns a private inbox/outbox
  pipe pair with exactly one writer per end — there is no shared queue
  lock a SIGKILLed worker could strand, so one corpse can never wedge
  its siblings.
* **Heartbeat watchdog.**  A daemon thread in every worker beats on the
  outbox; a worker that stops beating (stuck in an uninterruptible
  syscall, swapped to death) past ``heartbeat_timeout_s`` is killed and
  replaced.
* **Per-task deadlines.**  A task running past its deadline marks the
  worker hung: SIGKILL, respawn, re-dispatch.
* **Bounded re-dispatch with dedup.**  A task lost to a crashed/hung
  worker is re-dispatched up to ``max_retries`` times.  Tasks are
  identified by their canonical request key
  (:mod:`repro.service.keys`), and only the first completion of a task
  resolves its future — a straggler's late duplicate is counted and
  dropped, never double-recorded.
* **Circuit breaker per cell.**  Failures are recorded against the
  task's *cell* (a (workload, level) coordinate); ``failure_threshold``
  consecutive failures open the breaker and subsequent submissions for
  that cell fail fast with :class:`CellQuarantined` instead of burning
  the pool — one broken kernel quarantines itself, the rest of the
  sweep completes.

In-task exceptions follow the :mod:`~repro.resilience.errors`
taxonomy: ``transient`` failures are retried (in place, same pool),
everything else fails the task's future after feeding the breaker.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait

from . import faults
from .errors import FatalError, TransientError, classify_exception


class TaskLost(TransientError):
    """The worker running the task died or was killed by the watchdog."""


class CellQuarantined(RuntimeError):
    """The cell's circuit breaker is open: failing fast, not computing."""


class TaskFailed(RuntimeError):
    """A task exhausted its retries (the last cause is in ``args``)."""


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class CircuitBreaker:
    """closed → open (``failure_threshold`` consecutive failures) →
    half-open (one probe after ``cooldown_s``) → closed on success,
    back to open on a failed probe.  ``clock`` is injectable for tests."""

    failure_threshold: int = 5
    cooldown_s: float = 30.0
    clock: object = time.monotonic
    state: str = "closed"
    failures: int = 0
    opened_at: float = 0.0
    trips: int = 0

    def allow(self) -> bool:
        """May a new attempt proceed?  The first allowance after the
        cooldown is the half-open probe; further calls wait on it."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at >= self.cooldown_s:
                self.state = "half_open"
                return True
            return False
        return False  # half_open: probe already out

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.failure_threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self.opened_at = self.clock()


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------

HEARTBEAT_INTERVAL_S = 0.25
#: how often the supervisor thread looks for dead, hung and silent
#: workers when no message arrives (dispatch never waits for it)
WATCHDOG_TICK_S = 0.02


def _apply_worker_faults(plan: faults.FaultPlan, key: str, attempt: int) -> None:
    """The worker-side fault sites, in severity order."""
    s = plan.fire("worker.kill", key, attempt)
    if s is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    s = plan.fire("worker.hang", key, attempt)
    if s is not None:
        time.sleep(s.delay_s or 3600.0)
    s = plan.fire("worker.slow", key, attempt)
    if s is not None:
        time.sleep(s.delay_s)
    s = plan.fire("worker.error", key, attempt)
    if s is not None:
        exc = FatalError if s.fatal else TransientError
        raise exc(f"injected worker.error for {key} (attempt {attempt})")


def _worker_main(inbox, outbox, hb_interval: float, parent: int) -> None:
    """Worker loop: recv (task_id, attempt, key, fn, arg), send results.

    The outbox has two in-process writers (main loop + heartbeat
    thread), serialized by a thread lock; cross-process it has exactly
    one writer, so a sibling's death cannot corrupt this channel.

    The heartbeat thread also ends the process once its parent (pid
    ``parent``) is gone: ``recv`` alone would never see EOF, because the
    worker inherited its own inbox's write end across ``fork``, and so
    did every sibling forked after it.
    """
    send_lock = threading.Lock()

    def send(msg) -> bool:
        try:
            with send_lock:
                outbox.send(msg)
            return True
        except OSError:
            return False  # parent went away; nothing left to do

    def beat():
        while os.getppid() == parent and send(("hb", None, None)):
            time.sleep(hb_interval)
        os._exit(0)  # nobody is left to take a result

    threading.Thread(target=beat, daemon=True, name="hb").start()
    plan = faults.ARMED  # inherited over fork
    while True:
        try:
            msg = inbox.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, attempt, key, fn, arg = msg
        try:
            if plan is not None:
                _apply_worker_faults(plan, key, attempt)
            result = fn(arg)
        except BaseException as e:
            send(("err", task_id, (repr(e), classify_exception(e))))
        else:
            send(("ok", task_id, result))


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    id: int
    key: str
    cell: object
    fn: object
    arg: object
    future: Future
    deadline_s: float | None
    attempts: int = 0  # dispatches so far


@dataclass
class _Worker:
    id: int
    proc: object
    sconn: object          # parent -> worker
    rconn: object          # worker -> parent
    task: _Task | None = None
    started: float = 0.0   # dispatch time of the current task
    last_beat: float = field(default_factory=time.monotonic)


class SupervisedPool:
    """A fork pool that survives crashed, hung, and slow workers.

    ``submit(fn, arg, key=..., cell=...)`` returns a
    :class:`concurrent.futures.Future`.  ``fn`` must be a module-level
    callable (same contract as ProcessPoolExecutor under fork).

    ``submit`` wakes the supervisor thread through a self-pipe, so a
    task is dispatched as soon as a worker is free; the thread's
    :data:`WATCHDOG_TICK_S` timeout only paces the watchdog.
    """

    def __init__(
        self,
        jobs: int,
        *,
        deadline_s: float | None = None,
        max_retries: int = 2,
        failure_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = 15.0,
    ):
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.failure_threshold = failure_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._ctx = multiprocessing.get_context("fork")
        self._ids = itertools.count(1)
        self._wids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._tasks: dict[int, _Task] = {}
        self._breakers: dict[object, CircuitBreaker] = {}
        self._closed = False
        self.counters = {
            "submitted": 0, "tasks_ok": 0, "tasks_failed": 0,
            "retries": 0, "redispatched": 0, "deadline_kills": 0,
            "hb_kills": 0, "worker_restarts": 0, "duplicates_dropped": 0,
            "quarantined": 0,
        }
        # fork all workers before the supervisor thread exists: forking a
        # multi-threaded parent risks inheriting held locks
        self._workers: dict[int, _Worker] = {}
        for _ in range(jobs):
            self._spawn()
        # the self-pipe: one byte per submit wakes the supervisor thread
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._thread = threading.Thread(target=self._supervise, daemon=True,
                                        name="repro-pool-supervisor")
        self._thread.start()

    # -- public API ------------------------------------------------------

    def submit(self, fn, arg, *, key: str | None = None, cell=None,
               deadline_s: float | None = None) -> Future:
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            self.counters["submitted"] += 1
            if cell is not None:
                b = self._breakers.get(cell)
                if b is not None and not b.allow():
                    self.counters["quarantined"] += 1
                    fut.set_exception(CellQuarantined(
                        f"cell {cell!r} quarantined after "
                        f"{b.failures} consecutive failures"))
                    return fut
            t = _Task(next(self._ids), key or "", cell, fn, arg, fut,
                      deadline_s if deadline_s is not None else self.deadline_s)
            if not t.key:
                t.key = f"task-{t.id}"
            self._tasks[t.id] = t
            self._pending.append(t)
            self._wake()
        return fut

    def breaker_states(self) -> dict:
        with self._lock:
            return {
                repr(cell): {"state": b.state, "failures": b.failures,
                             "trips": b.trips}
                for cell, b in self._breakers.items()
            }

    def status(self) -> dict:
        """Watchdog view for /healthz: worker liveness + breaker state."""
        now = time.monotonic()
        with self._lock:
            workers = [
                {"pid": w.proc.pid, "alive": w.proc.is_alive(),
                 "busy": w.task.key if w.task is not None else None,
                 "beat_age_s": round(now - w.last_beat, 3)}
                for w in self._workers.values()
            ]
            pending = len(self._pending)
        return {
            "workers": workers,
            "pending": pending,
            "breakers": self.breaker_states(),
            "counters": dict(self.counters),
        }

    @property
    def breaker_trips(self) -> int:
        with self._lock:
            return sum(b.trips for b in self._breakers.values())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake()
        self._thread.join(timeout=5)
        for t in list(self._tasks.values()):
            if not t.future.done():
                t.future.set_exception(RuntimeError("pool closed"))
        self._tasks.clear()
        for w in list(self._workers.values()):
            try:
                w.sconn.send(None)
            except OSError:
                pass
        for w in list(self._workers.values()):
            w.proc.join(timeout=1)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1)
            w.sconn.close()
            w.rconn.close()
        # the Process objects hold their sentinel descriptors until freed
        self._workers.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _wake(self) -> None:
        """Wake the supervisor thread.  The caller holds ``_lock`` and
        has found the pool open, so the thread has not closed the pipe."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: a wake is already pending

    # -- worker lifecycle (supervisor thread + __init__ only) ------------

    def _spawn(self) -> None:
        wid = next(self._wids)
        c_in_r, p_in_s = self._ctx.Pipe(duplex=False)
        p_out_r, c_out_s = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(c_in_r, c_out_s, self.heartbeat_interval_s, os.getpid()),
            daemon=True, name=f"repro-worker-{wid}",
        )
        proc.start()
        # close the child's ends in the parent so EOF propagates on death
        c_in_r.close()
        c_out_s.close()
        with self._lock:
            self._workers[wid] = _Worker(wid, proc, p_in_s, p_out_r)

    def _retire(self, w: _Worker, now: float, reason: str) -> None:
        """Kill/reap a worker, rescue its task, spawn a replacement."""
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=2)
        with self._lock:
            self._workers.pop(w.id, None)
        w.sconn.close()
        w.rconn.close()
        self.counters["worker_restarts"] += 1
        t, w.task = w.task, None
        if t is not None:
            self._rescue(t, reason)
        self._spawn()

    def _rescue(self, t: _Task, reason: str) -> None:
        """Re-dispatch a task lost with its worker, if retries remain."""
        if t.attempts <= self.max_retries:
            self.counters["redispatched"] += 1
            with self._lock:
                self._pending.appendleft(t)
        else:
            self._finish_err(t, TaskFailed(
                f"task {t.key} lost {t.attempts} worker(s) ({reason})"))

    # -- completion ------------------------------------------------------

    def _breaker_for(self, cell) -> CircuitBreaker:
        b = self._breakers.get(cell)
        if b is None:
            b = self._breakers[cell] = CircuitBreaker(
                self.failure_threshold, self.breaker_cooldown_s)
        return b

    def _finish_ok(self, t: _Task, result) -> None:
        with self._lock:
            if self._tasks.pop(t.id, None) is None:
                self.counters["duplicates_dropped"] += 1
                return
            self.counters["tasks_ok"] += 1
            if t.cell is not None:
                self._breaker_for(t.cell).record_success()
        t.future.set_result(result)

    def _finish_err(self, t: _Task, exc: Exception) -> None:
        with self._lock:
            if self._tasks.pop(t.id, None) is None:
                self.counters["duplicates_dropped"] += 1
                return
            self.counters["tasks_failed"] += 1
            if t.cell is not None:
                self._breaker_for(t.cell).record_failure()
        t.future.set_exception(exc)

    # -- the supervision loop --------------------------------------------

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    # the reader closes the pipe, under the lock that
                    # every writer holds: a ``close`` that gave up
                    # waiting for this thread cannot leave it polling
                    # a closed or reused descriptor
                    os.close(self._wake_r)
                    os.close(self._wake_w)
                    return
            self._dispatch()
            conns = {w.rconn: w for w in list(self._workers.values())}
            ready = _conn_wait([self._wake_r, *conns], timeout=WATCHDOG_TICK_S)
            now = time.monotonic()
            for conn in ready:
                if conn == self._wake_r:
                    os.read(self._wake_r, 4096)
                else:
                    self._drain(conns[conn], now)
            self._watchdog(now)

    def _dispatch(self) -> None:
        for w in list(self._workers.values()):
            if w.task is not None or not w.proc.is_alive():
                continue
            with self._lock:
                if not self._pending:
                    return
                t = self._pending.popleft()
            t.attempts += 1
            w.task = t
            w.started = time.monotonic()
            try:
                w.sconn.send((t.id, t.attempts - 1, t.key, t.fn, t.arg))
            except (OSError, ValueError):
                w.task = None
                self._retire(w, w.started, "send failed")
                return  # worker map changed; re-enter next loop tick

    def _drain(self, w: _Worker, now: float) -> None:
        try:
            msg = w.rconn.recv()
        except (EOFError, OSError):
            self._retire(w, now, "worker died")
            return
        kind, task_id, payload = msg
        w.last_beat = now
        if kind == "hb":
            return
        t = w.task
        w.task = None
        if t is None or t.id != task_id:
            # a message for a task this worker no longer owns
            self.counters["duplicates_dropped"] += 1
            w.task = t
            return
        if kind == "ok":
            self._finish_ok(t, payload)
            return
        text, severity = payload
        if severity == "transient" and t.attempts <= self.max_retries:
            self.counters["retries"] += 1
            with self._lock:
                self._pending.appendleft(t)
        else:
            self._finish_err(t, TaskFailed(f"task {t.key}: {text}"))

    def _watchdog(self, now: float) -> None:
        for w in list(self._workers.values()):
            if not w.proc.is_alive():
                self._retire(w, now, "worker died")
            elif (w.task is not None and w.task.deadline_s is not None
                    and now - w.started > w.task.deadline_s):
                self.counters["deadline_kills"] += 1
                self._retire(w, now, "deadline expired")
            elif (w.task is not None
                    and now - w.last_beat > self.heartbeat_timeout_s):
                self.counters["hb_kills"] += 1
                self._retire(w, now, "heartbeat lost")
