"""Client units: ``Retry-After`` parsing (both RFC 9110 forms),
monotonic job deadlines, and the persistent-connection transport.

The clock half pins the bugfix sweep's client/jobs halves: a
server-suggested backoff must be honored whether it arrives as
delta-seconds or an HTTP-date, and a job's deadline must be immune to
wall-clock steps.  The transport half counts connections on a live
server (``/metrics`` ``http``): one per client thread, a connection the
server closed is replaced before anything is sent, nothing is sent
twice, and a ``Content-Length`` that cannot be trusted closes the
connection.
"""

import json
import select
import socket
import threading
import time

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSite
from repro.service.client import (
    CLIENT_RETRY,
    ServiceClient,
    ServiceUnavailable,
    parse_retry_after,
)
from repro.service.jobs import Job
from repro.service.server import MAX_BODY_BYTES, serve_background


class TestParseRetryAfter:
    # a fixed "now": Fri, 08 Aug 2026 12:00:00 GMT as a POSIX stamp
    NOW = 1786190400.0

    def test_delta_seconds(self):
        assert parse_retry_after("5") == 5.0
        assert parse_retry_after("0") == 0.0
        assert parse_retry_after(" 2 ") == 2.0
        assert parse_retry_after("1.5") == 1.5

    def test_negative_delta_clamps_to_zero(self):
        assert parse_retry_after("-3") == 0.0

    def test_http_date(self):
        # 30 seconds past the injected now
        assert parse_retry_after(
            "Fri, 08 Aug 2026 12:00:30 GMT", now=self.NOW) == 30.0

    def test_http_date_in_the_past_clamps_to_zero(self):
        assert parse_retry_after(
            "Fri, 08 Aug 2026 11:59:00 GMT", now=self.NOW) == 0.0

    def test_http_date_without_zone_is_utc(self):
        # RFC 5322 allows zone-less dates; they must not be read as
        # local time (a +12h zone would turn 0s of backoff into 12h)
        assert parse_retry_after(
            "Fri, 08 Aug 2026 12:00:10", now=self.NOW) == 10.0

    def test_unparseable_is_none(self):
        assert parse_retry_after(None) is None
        assert parse_retry_after("") is None
        assert parse_retry_after("soon") is None
        assert parse_retry_after("Fri, 99 Zed 2026") is None

    def test_uses_real_clock_when_now_omitted(self):
        # a date ~1h ahead of the real wall clock: the returned delay
        # must be positive and bounded, whatever "now" is during the run
        when = time.time() + 3600
        date = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(when))
        got = parse_retry_after(date)
        assert 3590.0 <= got <= 3610.0


class TestClientHeaders:
    def test_extra_headers_are_carried(self):
        c = ServiceClient("http://127.0.0.1:1", headers={"X-Repro-Hop": "route"})
        assert c.headers == {"X-Repro-Hop": "route"}
        # the default retry policy is the shared one, unchanged
        assert c.retry is CLIENT_RETRY


class TestMonotonicDeadlines:
    def test_deadline_is_monotonic_not_wall_clock(self, monkeypatch):
        job = Job("job-000001", "run", {})
        job.deadline_mono = time.monotonic() + 5.0
        # a violent wall-clock step in either direction must not move
        # the deadline: remaining_s consults only the monotonic clock
        monkeypatch.setattr(time, "time", lambda: 0.0)
        assert 4.0 < job.remaining_s() <= 5.0
        monkeypatch.setattr(time, "time", lambda: 4e9)
        assert 4.0 < job.remaining_s() <= 5.0

    def test_no_deadline_means_unbounded(self):
        job = Job("job-000002", "run", {})
        assert job.deadline_mono is None
        assert job.remaining_s() is None

    def test_as_dict_exposes_display_times_and_elapsed(self):
        job = Job("job-000003", "run", {})
        d = job.as_dict()
        # wall-clock fields exist for humans; elapsed comes from the
        # monotonic clock and is None until the job finishes
        assert d["created"] > 0
        assert d["finished"] is None
        assert d["elapsed_s"] is None
        assert "deadline_mono" not in d  # internal, not API


# ---------------------------------------------------------------------------
# persistent connections
# ---------------------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    httpd, engine, url = serve_background(store_dir=tmp_path / "store")
    yield httpd, url
    httpd.shutdown()
    httpd.server_close()
    engine.close()


def _drop_plan(drop: list[bool]) -> FaultPlan:
    """A plan whose ``server.drop_response`` fires on exactly the POST
    replies marked True, in arrival order."""
    site = FaultSite("server.drop_response", rate=0.5)
    for seed in range(1000):
        plan = FaultPlan(seed, (site,))
        if [plan.count_for(site.site, f"#{i}") > 0
                for i in range(len(drop))] == drop:
            return plan
    raise AssertionError(f"no seed drops exactly {drop}")


class TestPersistentConnections:
    def test_one_connection_per_client_thread(self, server):
        httpd, url = server
        c = ServiceClient(url, retry=None)
        for _ in range(50):
            c.healthz()
        assert httpd.http_counts() == {"connections": 1, "requests": 50}

        threads = [threading.Thread(target=lambda: [c.healthz()
                                                    for _ in range(10)])
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert httpd.http_counts() == {"connections": 3, "requests": 70}
        # and /metrics reports the same counts (itself included)
        assert c.metrics()["http"] == {"connections": 3, "requests": 71}

    def test_leaving_the_with_block_drops_the_connection(self, server):
        httpd, url = server
        with ServiceClient(url, retry=None) as c:
            c.healthz()
        c.healthz()
        assert httpd.http_counts()["connections"] == 2

    def test_connection_closed_while_idle_is_replaced_before_sending(
            self, server):
        httpd, url = server

        class ClosesWhenIdle(httpd.RequestHandlerClass):
            def _get_healthz(self, arg):
                super()._get_healthz(arg)
                # closed after the reply, unannounced: an idle timeout
                self.close_connection = True

        httpd.RequestHandlerClass = ClosesWhenIdle
        c = ServiceClient(url)
        c.healthz()
        # the server's FIN has arrived: the pooled socket reads as closed
        assert select.select([c._local.conn.sock], [], [], 1.0)[0]
        assert c.metrics()["http"] == {"connections": 2, "requests": 2}
        assert c.retries == 0  # replaced before sending, not resent

    def test_dropped_reply_on_a_reused_connection(self, server):
        httpd, url = server
        bare = ServiceClient(url, retry=None)
        bare.healthz()  # a GET: never dropped; opens the connection
        with faults.armed(_drop_plan([True])):
            with pytest.raises(ServiceUnavailable):
                bare.run("add", level=0, width=1)
        assert bare.retries == 0

        c = ServiceClient(url)
        assert c.retry is CLIENT_RETRY
        c.healthz()
        with faults.armed(_drop_plan([True, False])) as plan:
            r = c.run("add", level=0, width=1)
        assert r["result"]["cycles"] > 0
        assert plan.injected["server.drop_response"] == 1
        assert c.retries == 1
        # healthz + dropped run per client, + the retried run: each
        # dropped reply cost its connection, and nothing else was sent
        assert httpd.http_counts() == {"connections": 3, "requests": 5}

    @pytest.mark.parametrize("length", ["abc", "-1", "-5",
                                        str(MAX_BODY_BYTES + 1)])
    def test_untrusted_content_length_is_400_and_closes(self, server, length):
        _, url = server
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=1.0) as s:
            s.sendall(f"POST /v1/run HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Length: {length}\r\n\r\n".encode())
            # read to EOF: a server that kept the connection open (or
            # waited for a body) would time this read out after 1 s
            reply = s.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert b"bad Content-Length" in body

    @pytest.mark.parametrize("head,status", [
        # a chunked body used to be read as empty (a JSON 400) and its
        # chunks then parsed as the next request (an HTML 400)
        (b"POST /v1/run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"11\r\n{\"workload\":\"add\"}\r\n0\r\n\r\n", 411),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
         431),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n", 431),
    ], ids=["chunked", "request-line", "header-line", "101-headers"])
    def test_an_unframable_head_is_one_json_error_and_a_close(
            self, server, head, status):
        _, url = server
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=1.0) as s:
            s.sendall(head)
            # read to EOF within the 1 s timeout: one reply, then a close
            reply = s.makefile("rb").read()
        head_out, _, body = reply.partition(b"\r\n\r\n")
        assert head_out.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close" in head_out
        assert b"\r\nContent-Type: application/json" in head_out
        assert set(json.loads(body)) == {"error"}

    def test_expect_continue_and_http10_close(self, server):
        _, url = server
        host, port = url.removeprefix("http://").split(":")
        body = b'{"workload": "nope"}'
        with socket.create_connection((host, int(port)), timeout=1.0) as s:
            f = s.makefile("rb")
            s.sendall(b"POST /v1/run HTTP/1.1\r\nExpect: 100-continue\r\n"
                      b"Content-Length: %d\r\n\r\n" % len(body))
            assert f.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert f.readline() == b"\r\n"
            s.sendall(body)
            assert f.readline().startswith(b"HTTP/1.1 400 ")
            # an HTTP/1.0 request on the same connection is its last
            s.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            rest = f.read()
        assert rest.count(b"HTTP/1.1 200 ") == 1
        assert b"\r\nConnection: close" in rest

    def test_kept_alive_hits_do_not_stall(self, server):
        """200 hits on one connection: about 0.2 s; a reply held back
        by Nagle's algorithm for the client's delayed ACK costs ~40 ms
        each, about 8 s."""
        httpd, url = server
        c = ServiceClient(url, retry=None)
        assert c.run("add", level=0, width=1)["cache"] == "miss"
        t0 = time.perf_counter()
        for _ in range(200):
            assert c.run("add", level=0, width=1)["cache"] == "hit"
        assert time.perf_counter() - t0 < 2.0
        assert httpd.http_counts()["connections"] == 1

    def test_server_close_does_not_wait_for_idle_connections(self, server):
        httpd, url = server
        c = ServiceClient(url, retry=None)
        c.healthz()  # leaves a handler thread parked on the idle connection
        closer = threading.Thread(
            target=lambda: (httpd.shutdown(), httpd.server_close()))
        closer.start()
        closer.join(2.0)
        assert not closer.is_alive()
