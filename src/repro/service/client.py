"""Client SDK for the compilation service (stdlib ``http.client`` only).

    from repro.service.client import ServiceClient

    with ServiceClient("http://127.0.0.1:8734") as c:
        c.healthz()
        r = c.run("dotprod", level=4, width=8)        # blocks; cached or fresh
        job = c.sweep(["add", "sum"], widths=[1, 8])  # async: returns job id
        data = c.wait_job(job)                        # poll until done
        c.metrics()["hits"]

The transport is one persistent HTTP/1.1 connection per (client,
thread), reused for every request that thread sends; :meth:`close` (or
leaving the ``with``) drops the calling thread's.  Before a kept-alive
connection is reused it is probed with a zero-timeout ``select``: an
idle socket is readable only once the server has closed it, so such a
connection is replaced *before* anything is sent.  The transport never
sends a request twice — a failure after sending is a
:class:`ServiceUnavailable`, and only the retry policy below sends again.

Errors are raised as :class:`ServiceUnavailable` (connection refused or
dropped), :class:`ServiceOverloaded` (HTTP 429 — back off and retry),
or :class:`ServiceRequestError` (anything else non-2xx, with the
server's error string).  Transport failures and 503 (quarantined cell)
are retried under the shared :class:`~repro.resilience.retry.RetryPolicy`
— safe because every request is idempotent by canonical key; 429 is
retried only when ``retry_overloaded=True`` (by default shedding is a
signal the caller should see).  ``Retry-After`` headers override the
computed backoff, in both RFC 9110 forms — delta-seconds *and*
HTTP-date (:func:`parse_retry_after`).  Used by ``repro submit``, ``experiments/sweep.py``
clients, and ``examples/service_client.py``.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import select
import threading
import time
import urllib.parse
from datetime import timezone

from ..resilience.retry import RetryPolicy, RetryState

#: default transport retry schedule (connection drops, 503)
CLIENT_RETRY = RetryPolicy(max_attempts=5, base_s=0.05, cap_s=2.0,
                           budget_s=30.0)


def parse_retry_after(value: str | None, *, now: float | None = None
                      ) -> float | None:
    """Seconds of server-suggested backoff from a ``Retry-After`` header.

    RFC 9110 §10.2.3 allows two forms: non-negative *delta-seconds*
    (``"5"``) and an *HTTP-date* (``"Fri, 08 Aug 2026 12:00:00 GMT"``).
    Returns the delay in seconds (a past date clamps to ``0.0``), or
    ``None`` for a missing/unparseable header.  ``now`` (a POSIX
    timestamp) is injectable so tests don't race the real clock; the
    date arithmetic itself is a difference of two wall-clock readings
    taken at the same instant, so a clock *step* before the call cannot
    produce a bogus huge delay the way a persisted timestamp would.
    """
    if value is None:
        return None
    value = value.strip()
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:  # RFC 5322 parse of a legacy date w/o zone
        when = when.replace(tzinfo=timezone.utc)
    if now is None:
        now = time.time()
    return max(0.0, when.timestamp() - now)


class ServiceRequestError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: server-suggested backoff (``Retry-After`` header), if any
        self.retry_after = retry_after


class ServiceOverloaded(ServiceRequestError):
    """The service shed the request (HTTP 429): retry after a backoff."""


class ServiceUnavailable(RuntimeError):
    """The service could not be reached at all."""


class _Connection(http.client.HTTPConnection):
    """A pooled connection that closes its socket when it is dropped
    with its thread or client, not in the garbage collector's
    unclosed-socket warning."""

    def __del__(self):
        self.close()


class ServiceClient:
    def __init__(self, base_url: str, timeout: float = 300.0,
                 retry: RetryPolicy | None = CLIENT_RETRY,
                 retry_overloaded: bool = False,
                 headers: dict | None = None):
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self.timeout = timeout
        self.retry = retry
        self.retry_overloaded = retry_overloaded
        #: extra headers sent with every request (the cluster layer uses
        #: this for its forwarding loop guards)
        self.headers = dict(headers or {})
        #: transport retries performed over this client's lifetime
        self.retries = 0
        #: ``.conn``: the calling thread's persistent connection
        self._local = threading.local()

    def close(self) -> None:
        """Drop the calling thread's connection; the next request from
        this thread opens a new one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, probed before reuse."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(self._host, self._port,
                                                  timeout=self.timeout)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # an idle kept-alive socket is readable only once the server
            # has closed it: reconnect now, while nothing has been sent
            conn.close()
        return conn

    def _retryable(self, e: Exception) -> bool:
        if isinstance(e, ServiceUnavailable):
            return True
        if isinstance(e, ServiceOverloaded):
            return self.retry_overloaded
        return isinstance(e, ServiceRequestError) and e.status == 503

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        if self.retry is None:
            return self._call_once(method, path, body)
        state = RetryState(self.retry)
        while True:
            try:
                return self._call_once(method, path, body)
            except (ServiceRequestError, ServiceUnavailable) as e:
                if not self._retryable(e):
                    raise
                delay = state.next_delay(getattr(e, "retry_after", None))
                if delay is None:
                    raise
                self.retries += 1
                time.sleep(delay)

    def _call_once(self, method: str, path: str,
                   body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        conn = self._connection()
        try:
            conn.request(method, self._prefix + path, body=data, headers={
                "Content-Type": "application/json", **self.headers})
            resp = conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError) as e:
            # refused, reset, dropped mid-reply or timed out: the
            # connection is done, and whether to send again is the retry
            # policy's call, never the transport's
            self.close()
            raise ServiceUnavailable(f"{self.base_url}: {e!r}") from None
        if 200 <= resp.status < 300:
            return json.loads(raw or b"{}")
        try:
            message = json.loads(raw or b"{}").get("error", resp.reason)
        except (json.JSONDecodeError, AttributeError):
            message = resp.reason
        retry_after = parse_retry_after(resp.getheader("Retry-After"))
        cls = ServiceOverloaded if resp.status == 429 else ServiceRequestError
        raise cls(resp.status, message, retry_after)

    # -- endpoints ------------------------------------------------------

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    def compile(self, workload: str, level: int = 4, width: int = 8,
                **kwargs) -> dict:
        """Compile one configuration; returns the artifact payload
        (``result``) plus job id and cache disposition."""
        body = {"workload": workload, "level": level, "width": width, **kwargs}
        return self._call("POST", "/v1/compile", body)

    def run(self, workload: str, level: int = 4, width: int = 8,
            **kwargs) -> dict:
        """Compile + simulate (+ NumPy-check) one configuration."""
        body = {"workload": workload, "level": level, "width": width, **kwargs}
        return self._call("POST", "/v1/run", body)

    def sweep(self, workloads: list[str], levels=None, widths=None,
              **kwargs) -> str:
        """Submit an async sweep; returns the job id to poll."""
        body = {"workloads": list(workloads), **kwargs}
        if levels is not None:
            body["levels"] = list(levels)
        if widths is not None:
            body["widths"] = list(widths)
        return self._call("POST", "/v1/sweep", body)["job"]

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: str, timeout: float = 300.0,
                 poll: float = 0.05) -> dict:
        """Poll a job until it leaves the queue; returns its final record.

        Raises :class:`ServiceRequestError` if the job failed or timed
        out server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            rec = self.job(job_id)
            if rec["state"] in ("done", "failed", "timeout"):
                if rec["state"] != "done":
                    raise ServiceRequestError(
                        500, f"job {job_id} {rec['state']}: {rec['error']}"
                    )
                return rec
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {rec['state']} "
                                   f"after {timeout}s")
            time.sleep(poll)
