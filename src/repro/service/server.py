"""HTTP front-end: stdlib ``ThreadingHTTPServer`` over the job engine.

Endpoints (all JSON in/out)::

    POST /v1/compile   {workload, level, width, disable?, check_ir?}
    POST /v1/run       {workload, level, width, seed?, check?, ...}
    POST /v1/sweep     {workloads, levels?, widths?, ...} -> {job} (async)
    GET  /v1/jobs/<id> job status + result once done
    GET  /healthz      liveness
    GET  /metrics      request counts, hit/miss ratio, queue depth,
                       p50/p95 latency, shed count, store bytes, and
                       ``http: {connections, requests}`` accepted/handled

Connections are persistent (HTTP/1.1): a client keeps one open per
thread and a handler thread serves it until the client closes it, so a
hit pays no TCP handshake and no thread start.  Heads are read by
:mod:`repro.service.wire` (``_Handler.parse_request``), not the
stdlib's ``email`` parser, and every reply — the stdlib's own error
replies included — is JSON whose head and body leave in one write.  The
server closes a connection only after a reply that says ``Connection:
close`` or without a reply under an injected ``server.drop_response``.
It says so when the request asked for it (or spoke HTTP/1.0), and when
the stream is past framing: a ``Content-Length`` that cannot be trusted
(400) or any ``Transfer-Encoding`` (411) — a body left unread would be
parsed as the next request — a request line over 65 536 bytes (414), a
header line over that or more than 100 header fields (431).  There is no
idle timeout.

``compile`` and ``run`` block until the result is ready (they ride the
engine's single-flight/batching and per-request timeout); a store hit is
answered on the handler thread, its stored payload bytes spliced into
the reply undecoded.  ``sweep`` returns a job id immediately — poll
``/v1/jobs/<id>``.  A stored result is a hit whatever the queue
depth; a miss past capacity is ``429`` with ``Retry-After``, left to
the caller's retry policy.  A quarantined cell (open circuit breaker)
is ``503``; failed compilations ``500`` with the error string.
Malformed requests are ``400``, decided in one place: every body is
parsed by :meth:`CellRequest.from_body
<repro.service.keys.CellRequest.from_body>` (sweeps:
``SweepRequest.from_body``), which validates types, grid axes, workload
and pass names *before* admission — a bad request never reaches the
fork pool or a cell's circuit breaker.

Routing is one ``{(method, path): handler-name}`` table
(:attr:`_Handler.routes`); the cluster node and router override its
handlers by name instead of re-implementing the dispatch.
``/healthz`` reports the supervised pool's watchdog view (worker
liveness, heartbeat ages, breaker states) alongside the liveness bit.

``--fault-plan FILE`` arms a :mod:`repro.resilience.faults` plan before
the engine forks its workers — the chaos suite's entry point for
injecting dropped/delayed responses, worker crashes, and store I/O
errors into a live server.

No new dependencies: ``http.server``'s threading server + ``json``
only.  Not a hardened
public-internet server — it is the in-lab traffic front of the
compilation service (bind it to localhost).
"""

from __future__ import annotations

import argparse
import functools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..resilience import faults
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import CellQuarantined
from .client import ServiceRequestError
from .jobs import JobEngine, Overloaded, RequestTimeout
from .keys import CellRequest, SweepRequest
from .store import ArtifactStore
from .wire import HeadError, read_headers, with_fields

#: request bodies larger than this are rejected outright (bad client)
MAX_BODY_BYTES = 1 << 20


class ServiceError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a load-worthy listen backlog.

    The stdlib default backlog is 5: under a concurrent load generator
    (or a router fanning a sweep out cell-wise) the accept queue
    overflows and the kernel resets connections before the handler ever
    sees them.  128 matches the admission-control queue bound — beyond
    that the service is shedding anyway.

    It counts the connections it accepts and the requests its handlers
    serve (``/metrics`` ``http``).  A handler thread lives as long as its
    client's connection, so ``server_close()`` does not join threads
    parked on idle ones.
    """

    request_queue_size = 128
    daemon_threads = True
    block_on_close = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._http_lock = threading.Lock()
        self._http = {"connections": 0, "requests": 0}

    def count(self, name: str) -> None:
        with self._http_lock:
            self._http[name] += 1

    def http_counts(self) -> dict:
        with self._http_lock:
            return dict(self._http)

    def process_request(self, request, client_address):
        self.count("connections")
        super().process_request(request, client_address)


class _DroppedResponse(Exception):
    """Injected ``server.drop_response``: abandon the connection."""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    #: persistent connections (see the module docstring)
    protocol_version = "HTTP/1.1"
    #: a kept-alive reply must leave at once, not wait for the client's
    #: delayed ACK under Nagle's algorithm (~40 ms a request)
    disable_nagle_algorithm = True
    #: buffered replies: headers and body leave in one write, flushed
    #: by ``handle_one_request``
    wbufsize = -1
    #: set by make_server
    engine: JobEngine = None
    quiet: bool = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003
        if not self.quiet:
            super().log_message(fmt, *args)

    def parse_request(self) -> bool:
        """Parse :attr:`raw_requestline` and the head after it on
        :attr:`rfile` with :mod:`repro.service.wire` instead of the
        stdlib's ``email`` parser; False once an error reply is queued.

        Only a ``Content-Length`` body is read: any ``Transfer-Encoding``
        is a 411 that closes the connection (a body left unread would be
        parsed as the next request).
        """
        self.command = None
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            self.send_error(400, f"bad request line {self.requestline!r}")
            return False
        command, path, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(505 if version.startswith("HTTP/") else 400,
                            f"unsupported protocol {version!r}")
            return False
        try:
            self.headers = read_headers(self.rfile)
        except HeadError as e:
            self.send_error(e.status, str(e))
            return False
        if "Transfer-Encoding" in self.headers:
            self.send_error(411, "Transfer-Encoding is not supported: "
                                 "send a Content-Length")
            return False
        # set only now: the response fault sites fire on POST replies
        # of the handlers, never on a refused head
        self.command, self.path, self.request_version = command, path, version
        tokens = {t.strip() for t in
                  self.headers.get("Connection", "").lower().split(",")}
        self.close_connection = "close" in tokens or (
            version == "HTTP/1.0" and "keep-alive" not in tokens)
        if (version == "HTTP/1.1"
                and self.headers.get("Expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        return True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Every error reply is JSON, including the ones the stdlib sends
        (414 request line too long, 501 unknown method); it closes the
        connection, whose stream may be past any framing."""
        self.close_connection = True
        self._send(code, {"error": message or self.responses.get(
            code, ("error",))[0]})

    def _send(self, status: int, payload: dict, headers: dict = ()) -> None:
        self._send_raw(status, json.dumps(payload).encode(), headers)

    def _send_raw(self, status: int, data: bytes, headers: dict = ()) -> None:
        """Queue one reply whose body is the JSON bytes ``data``: head
        and body are one write, flushed by ``handle_one_request``."""
        plan = faults.ARMED
        if plan is not None and self.command == "POST":
            # response-path fault sites; keyed by arrival order (HTTP
            # responses have no natural content key)
            if plan.fire("server.drop_response",
                         plan.next_seq("server.drop_response")) is not None:
                raise _DroppedResponse()
            s = plan.fire("server.delay_response",
                          plan.next_seq("server.delay_response"))
            if s is not None:
                time.sleep(s.delay_s)
        head = (f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}"
                f"\r\nServer: {self.version_string()}"
                f"\r\nDate: {self.date_time_string()}"
                "\r\nContent-Type: application/json"
                f"\r\nContent-Length: {len(data)}\r\n")
        if self.close_connection:
            head += "Connection: close\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in dict(headers).items())
        self.wfile.write(head.encode("latin-1") + b"\r\n" + data)
        self.log_request(status, len(data))

    def _read_body(self) -> bytes:
        """Read the request body off the connection, so that the next
        request on it starts clean.  A non-integer, negative or oversized
        ``Content-Length`` is a 400 that closes the connection: the body
        cannot be skipped (and ``-1`` would read until the client hangs
        up)."""
        length = self.headers.get("Content-Length") or "0"
        n = int(length) if length.isascii() and length.isdigit() else -1
        if not 0 <= n <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(400, f"bad Content-Length {length!r} "
                                    f"(at most {MAX_BODY_BYTES} bytes)")
        return self.rfile.read(n)

    def _body(self) -> dict:
        raw = self._read_body()
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as e:
            raise ServiceError(400, f"invalid JSON body: {e}") from None
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON body must be an object")
        return body

    # -- routes ---------------------------------------------------------

    #: (method, path) -> (handler method name, body parser).  The
    #: handler is called with the parsed request — a parser's
    #: ``ValueError`` is the 400 — or, parser None, with the JSON body
    #: (POST), the path's last segment (a ``/*`` entry) or None.
    #: Subclasses override handlers by name.
    routes = {
        ("GET", "/healthz"): ("_get_healthz", None),
        ("GET", "/metrics"): ("_get_metrics", None),
        ("GET", "/v1/jobs/*"): ("_get_job", None),
        ("POST", "/v1/compile"): (
            "_post_cell", functools.partial(CellRequest.from_body,
                                            kind="compile")),
        ("POST", "/v1/run"): (
            "_post_cell", functools.partial(CellRequest.from_body,
                                            kind="run")),
        ("POST", "/v1/sweep"): ("_post_sweep", SweepRequest.from_body),
    }

    def _route(self, method: str, arg=None) -> None:
        entry = self.routes.get((method, self.path))
        if entry is None:
            head, _, arg = self.path.rpartition("/")
            entry = self.routes.get((method, head + "/*"))
        if entry is None:
            raise ServiceError(404, f"no route {self.path!r}")
        name, parse = entry
        if parse is not None:
            try:
                arg = parse(arg)
            except ValueError as e:
                raise ServiceError(400, f"bad request: {e}") from None
        getattr(self, name)(arg)

    def do_GET(self):  # noqa: N802
        self.server.count("requests")
        try:
            self._read_body()
            self._route("GET")
        except ServiceError as e:
            self._send(e.status, {"error": str(e)})

    def do_POST(self):  # noqa: N802
        self.server.count("requests")
        try:
            self._do_post()
        except _DroppedResponse:
            self.close_connection = True

    def _do_post(self) -> None:
        try:
            self._route("POST", self._body())
        except _DroppedResponse:
            raise  # handled by do_POST: abandon the connection
        except Overloaded as e:
            self._send(429, {"error": str(e)}, {"Retry-After": "1"})
        except CellQuarantined as e:
            self._send(503, {"error": str(e)}, {"Retry-After": "5"})
        except RequestTimeout as e:
            self._send(504, {"error": str(e)})
        except ServiceError as e:
            self._send(e.status, {"error": str(e)})
        except ServiceRequestError as e:
            # another node answered (cluster hops): relay its verdict —
            # 429 shed, 503 quarantine, ... — with its backoff hint
            self._send(e.status, {"error": str(e)},
                       {"Retry-After": f"{e.retry_after:g}"}
                       if e.retry_after is not None else ())
        except Exception as e:  # compilation/simulation failure
            self._send(500, {"error": repr(e)})

    def _get_healthz(self, _) -> None:
        self._send(200, self.engine.health())

    def _get_metrics(self, _) -> None:
        self._send(200, {**self._metrics(), "http": self.server.http_counts()})

    def _metrics(self) -> dict:
        """The ``/metrics`` payload; the server adds its ``http`` counts."""
        return self.engine.metrics()

    def _get_job(self, jid: str) -> None:
        job = self.engine.job(jid)
        if job is None:
            raise ServiceError(404, f"unknown job {jid!r}")
        self._send(200, job.as_dict())

    def _post_cell(self, req: CellRequest, extra: dict | None = None) -> None:
        """One blocking compile/run through the local engine.  A store
        hit is answered on this thread, its stored payload bytes spliced
        into the reply as they are."""
        job = self.engine.submit_request(req)
        if job.raw is not None:
            self._send_raw(200, with_fields(
                b'{"job": %s, "cache": "hit", "result": %s}'
                % (json.dumps(job.id).encode(), job.raw), extra))
            return
        result = self.engine.wait(job)
        self._send(200, {"job": job.id, "cache": job.cache,
                         "result": result, **(extra or {})})

    def _post_sweep(self, sweep: SweepRequest) -> None:
        job = self.engine.submit_sweep(sweep)
        self._send(202, {"job": job.id, "state": job.state,
                         "configs": sweep.configs})


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: str | Path | None = None,
    jobs: int = 1,
    max_pending: int = 64,
    max_store_bytes: int | None = None,
    default_timeout: float = 120.0,
    quiet: bool = True,
) -> tuple[ThreadingHTTPServer, JobEngine]:
    """Build (but do not start) the service; port 0 picks a free port."""
    store = (ArtifactStore(Path(store_dir), max_bytes=max_store_bytes)
             if store_dir is not None else None)
    engine = JobEngine(store=store, jobs=jobs, max_pending=max_pending,
                       default_timeout=default_timeout)
    handler = type("Handler", (_Handler,), {"engine": engine, "quiet": quiet})
    httpd = ServiceHTTPServer((host, port), handler)
    return httpd, engine


def serve_background(**kwargs) -> tuple[ThreadingHTTPServer, JobEngine, str]:
    """Start a server on a daemon thread; returns (server, engine, url).

    Test/CI helper: ``examples/service_client.py --selftest`` and the
    integration suite use it to run client and server in one process.
    """
    httpd, engine = make_server(**kwargs)
    threading.Thread(target=httpd.serve_forever, daemon=True,
                     name="repro-service-http").start()
    host, port = httpd.server_address[:2]
    return httpd, engine, f"http://{host}:{port}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro serve", description="Run the compilation service."
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8734)
    ap.add_argument("--store", metavar="DIR",
                    help="persistent artifact-store directory "
                         "(default: serve without a store)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="compile/simulate worker processes (default: 1)")
    ap.add_argument("--max-pending", type=int, default=64, metavar="N",
                    help="admission-control queue bound (default: 64)")
    ap.add_argument("--max-store-bytes", type=int, default=None, metavar="B",
                    help="LRU-evict the store past this size (default: off)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="default per-request deadline in seconds")
    ap.add_argument("--fault-plan", metavar="FILE", default=None,
                    help="arm a fault-injection plan from a JSON file "
                         "(chaos testing only)")
    ap.add_argument("--verbose", action="store_true",
                    help="log every request")
    args = ap.parse_args(argv)

    if args.fault_plan:
        # arm before the engine forks its workers, so the plan is
        # inherited by every worker process
        plan = FaultPlan.from_file(args.fault_plan)
        faults.arm(plan)
        print(plan.describe(), flush=True)

    httpd, engine = make_server(
        host=args.host, port=args.port, store_dir=args.store,
        jobs=args.jobs, max_pending=args.max_pending,
        max_store_bytes=args.max_store_bytes,
        default_timeout=args.timeout, quiet=not args.verbose,
    )
    host, port = httpd.server_address[:2]
    store_note = f", store={args.store}" if args.store else ""
    print(f"repro service on http://{host}:{port} "
          f"({args.jobs} worker(s){store_note})", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
