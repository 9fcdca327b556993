"""The service's HTTP/1.1 framing, shared by the server and the client.

One head reader for both directions: the caller reads the start line (a
request line or a status line) with :func:`read_line`, then
:func:`read_headers` reads the header fields into a :class:`Headers`
map.  The limits are the stdlib's: a line is at most :data:`MAX_LINE`
bytes and a head at most :data:`MAX_HEADERS` fields.  It replaces
``http.client.parse_headers``, which builds an ``email.message.Message``
through the ``email`` feed parser for every head — four per routed hit.

:func:`with_fields` is the relay's splice: the bytes of a JSON object
with members appended, so a hop can add ``routed_by`` / ``failover`` /
``forwarded`` to a reply it never decodes.
"""

from __future__ import annotations

import json

#: longest request, status or header line, in bytes (the stdlib's)
MAX_LINE = 65536
#: most header fields in one head
MAX_HEADERS = 100


class HeadError(ValueError):
    """A head that cannot be read; ``status`` is a server's reply to it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header fields by lower-cased name; lookups take any case.  A
    repeated field is one value, joined with ``", "``."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return super().__contains__(name.lower())


def read_line(rfile, status: int, what: str) -> bytes:
    """One line of a head, ``b""`` at end of stream; a line longer than
    :data:`MAX_LINE` is a :class:`HeadError` with ``status``."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(status, f"{what} longer than {MAX_LINE} bytes")
    return line


def read_headers(rfile) -> Headers:
    """The header fields up to the blank line that ends a head.

    A line too long or more than :data:`MAX_HEADERS` fields is a 431, a
    malformed field (no colon, whitespace before it, a folded line) or
    the end of the stream inside the head a 400.
    """
    headers = Headers()
    fields = 0
    while True:
        line = read_line(rfile, 431, "header line")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise HeadError(400, "connection closed inside the head")
        fields += 1
        if fields > MAX_HEADERS:
            raise HeadError(431, f"more than {MAX_HEADERS} header fields")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise HeadError(400, f"malformed header line {line[:80]!r}")
        key = name.decode("latin-1").lower()
        value = value.strip().decode("latin-1")
        old = dict.get(headers, key)
        headers[key] = value if old is None else f"{old}, {value}"


def with_fields(obj: bytes, fields: dict) -> bytes:
    """The JSON object ``obj`` with ``fields`` appended, without decoding
    it.  ``fields`` names members ``obj`` does not have."""
    if not fields:
        return obj
    body = obj.rstrip()
    if not body.endswith(b"}"):
        raise ValueError("not a JSON object")
    body = body[:-1].rstrip()
    sep = b"" if body.endswith(b"{") else b", "
    return body + sep + json.dumps(fields)[1:-1].encode() + b"}"
