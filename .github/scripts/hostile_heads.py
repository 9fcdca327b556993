"""Hostile HTTP heads for the service smokes (imported by
``service_smoke.py`` and ``cluster_smoke.py``).

Each head below cannot be framed as a request: a chunked body, a header
line longer than 65 536 bytes, 101 header fields.  A server must answer
each with one JSON 4xx that closes the connection, within a second —
not read the rest of the stream as a next request, not hang, not send
the stdlib's HTML error page.
"""

import json
import socket
import urllib.parse

HEADS = {
    "chunked body": b"POST /v1/run HTTP/1.1\r\nTransfer-Encoding: chunked"
                    b"\r\n\r\n11\r\n{\"workload\":\"add\"}\r\n0\r\n\r\n",
    "70 KB header line": b"GET /healthz HTTP/1.1\r\nX-Long: "
                         + b"a" * 70_000 + b"\r\n\r\n",
    "101 headers": b"GET /healthz HTTP/1.1\r\n"
                   + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
                   + b"\r\n",
}


def check_hostile_heads(url: str) -> list[str]:
    """What is wrong with ``url``'s answers to :data:`HEADS` (empty when
    each is a JSON 4xx plus ``Connection: close``)."""
    where = urllib.parse.urlsplit(url)
    problems = []
    for name, head in HEADS.items():
        try:
            with socket.create_connection((where.hostname, where.port),
                                          timeout=1.0) as s:
                s.sendall(head)
                reply = s.makefile("rb").read()  # to EOF: the close
        except OSError as e:
            problems.append(f"{url} {name}: {e!r}")
            continue
        status_head, _, body = reply.partition(b"\r\n\r\n")
        status = status_head.split(b" ", 2)[1:2]
        try:
            error = json.loads(body)["error"]
        except (ValueError, KeyError, TypeError):
            error = None
        if not (status and status[0].startswith(b"4")) or error is None \
                or b"\r\nConnection: close" not in status_head:
            problems.append(f"{url} {name}: {reply[:120]!r}")
    return problems
