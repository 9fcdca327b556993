"""Client SDK for the compilation service (stdlib sockets only).

    from repro.service.client import ServiceClient

    with ServiceClient("http://127.0.0.1:8734") as c:
        c.healthz()
        r = c.run("dotprod", level=4, width=8)        # blocks; cached or fresh
        job = c.sweep(["add", "sum"], widths=[1, 8])  # async: returns job id
        data = c.wait_job(job)                        # poll until done
        c.metrics()["hits"]

The transport is one persistent HTTP/1.1 connection per (client,
thread) — a socket with ``TCP_NODELAY`` and a buffered reader on it,
framed by :mod:`repro.service.wire` — reused for every request that
thread sends; :meth:`close` (or leaving the ``with``) drops the calling
thread's.  A request leaves in one write.  Before a kept-alive
connection is reused it is probed with a zero-timeout ``select``: an
idle socket is readable only once the server has closed it, so such a
connection is replaced *before* anything is sent.  A reply is framed
by its ``Content-Length``; one that says ``Connection: close``, or an
HTTP/1.0 reply, ends the connection.
The transport never sends a request twice — a failure after sending is a
:class:`ServiceUnavailable`, and only the retry policy below sends again.

Errors are raised as :class:`ServiceUnavailable` (connection refused or
dropped, or a reply that cannot be framed), :class:`ServiceOverloaded`
(HTTP 429 — back off and retry), or :class:`ServiceRequestError`
(anything else non-2xx, with the server's error string).  Transport
failures and 503 (quarantined cell) are retried under the shared
:class:`~repro.resilience.retry.RetryPolicy` — safe because every
request is idempotent by canonical key; 429 is retried only when
``retry_overloaded=True`` (by default shedding is a signal the caller
should see).  ``Retry-After`` headers override the computed backoff, in
both RFC 9110 forms — delta-seconds *and* HTTP-date
(:func:`parse_retry_after`).  Used by ``repro submit``,
``experiments/sweep.py`` clients, ``examples/service_client.py`` and
every cluster hop; a hop that relays a reply takes its bytes from
:meth:`ServiceClient._call_raw` instead of decoding them.
"""

from __future__ import annotations

import email.utils
import json
import select
import socket
import threading
import time
import urllib.parse
import weakref
from datetime import timezone

from ..resilience.retry import RetryPolicy, RetryState
from .wire import Headers, HeadError, read_headers, read_line

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


class _Socket:
    """A connected socket and the buffered reader on it.  ``close()``
    closes both, and so does dropping the object with its thread or
    client — a ``weakref.finalize`` rather than ``__del__``, which in a
    reference cycle may run after the socket's own finalizer has warned
    that it was never closed."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.close = weakref.finalize(self, _close_all, self.rfile, sock)


def _close_all(*files) -> None:
    for f in files:
        f.close()


def _read_reply(rfile) -> tuple[int, str, Headers, bytes, bool]:
    """``(status, reason, headers, body, keep)`` of one reply; ``keep``
    says whether the connection may carry another request.  The service
    frames every reply by ``Content-Length``; one without it is an
    error."""
    line = read_line(rfile, 502, "status line")
    if not line:
        raise ConnectionError("connection closed before the reply")
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not version.startswith(b"HTTP/") or not (
            len(code) == 3 and code.isdigit()):
        raise HeadError(502, f"bad status line {line[:80]!r}")
    headers = read_headers(rfile)
    length = headers.get("Content-Length", "")
    if not (length.isascii() and length.isdigit()):
        raise HeadError(502, f"bad Content-Length {length!r}")
    body = rfile.read(int(length))
    if len(body) < int(length):
        raise ConnectionError("connection closed inside the reply body")
    keep = (version == b"HTTP/1.1"
            and "close" not in headers.get("Connection", "").lower())
    return int(code), reason.decode("latin-1"), headers, body, keep


class ServiceClient:
    def __init__(self, base_url: str, timeout: float = 300.0,
                 retry: RetryPolicy | None = CLIENT_RETRY,
                 retry_overloaded: bool = False,
                 headers: dict | None = None):
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        self._host, self._port = url.hostname, url.port or 80
        self._netloc, self._prefix = url.netloc, url.path
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

    def _connection(self) -> _Socket:
        """The calling thread's connection, probed before reuse."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and select.select([conn.sock], [], [], 0)[0]:
            # an idle kept-alive socket is readable only once the server
            # has closed it: reconnect now, while nothing has been sent
            self.close()
            conn = None
        if conn is None:
            conn = self._local.conn = _Socket(socket.create_connection(
                (self._host, self._port), self.timeout))
        return conn

    def _retryable(self, e: Exception) -> bool:
        if isinstance(e, ServiceUnavailable):
            return True
        if isinstance(e, ServiceOverloaded):
            return self.retry_overloaded
        return isinstance(e, ServiceRequestError) and e.status == 503

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        return json.loads(self._call_raw(method, path, body) or b"{}")

    def _call_raw(self, method: str, path: str,
                  body: dict | None = None) -> bytes:
        """The body of a 2xx reply, as bytes, under the retry policy."""
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
                   body: dict | None = None) -> bytes:
        head = (f"{method} {self._prefix}{path} HTTP/1.1\r\n"
                f"Host: {self._netloc}\r\n")
        head += "".join(f"{k}: {v}\r\n" for k, v in self.headers.items())
        data = b""
        if body is not None:
            data = json.dumps(body).encode()
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n")
        try:
            conn = self._connection()
            conn.sock.sendall(head.encode("latin-1") + b"\r\n" + data)
            status, reason, headers, raw, keep = _read_reply(conn.rfile)
        except (OSError, ValueError) as e:
            # refused, reset, dropped mid-reply, timed out or unframable:
            # the connection is done, and whether to send again is the
            # retry policy's call, never the transport's
            self.close()
            raise ServiceUnavailable(f"{self.base_url}: {e!r}") from None
        if not keep:
            self.close()
        if 200 <= status < 300:
            return raw
        try:
            message = json.loads(raw or b"{}").get("error", reason)
        except (json.JSONDecodeError, AttributeError):
            message = reason
        retry_after = parse_retry_after(headers.get("Retry-After"))
        cls = ServiceOverloaded if status == 429 else ServiceRequestError
        raise cls(status, message, retry_after)

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
