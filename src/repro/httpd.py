"""A pre-threaded HTTP/1.1 listener: the wire under ``repro serve``.

Three parts — listener, request reader, reply writer — and no knowledge
of what is served: :class:`Listener` hands each parsed :class:`Request`
to one ``handler(request) -> (status, content_type, body)`` callable.

*Listener.*  :data:`WORKERS` threads, started once, each block in
``accept()`` on the one listening socket and serve a connection's
requests until it closes: no thread is born per request and the kernel
hands an arriving connection to exactly one sleeper.  More simultaneous
clients than workers wait in the listen backlog.  :meth:`Listener.stop`
does not poll and does not wait out a timeout: it shuts the read side of
every open connection (an idle keep-alive peer reads as EOF; a request
in flight still gets its reply) and wakes the sleepers with one
connection each.

*Reader.*  HTTP/1.1 with keep-alive by default; ``Connection: close``
and HTTP/1.0 are answered and closed; bytes past one request's body are
carried over to the next, so pipelined requests are answered in order.
It parses what the daemon's routes use — the request line, header names
lower-cased into a dict (a repeated name joins its values with ``", "``),
a ``Content-Length`` body — and rejects the rest with a status, after
which the connection is closed:

====== ==============================================================
400    malformed request line; header line without a colon or with
       whitespace in its name (folded lines included); non-numeric or
       negative ``Content-Length``
413    ``Content-Length`` over :data:`MAX_BODY_BYTES` — answered before
       any of the body is read, and none of it is kept
431    head over :data:`MAX_HEAD_BYTES` or over :data:`MAX_HEADER_LINES`
501    a method outside :data:`METHODS`; any ``Transfer-Encoding``
505    an HTTP version other than 1.0 / 1.1
====== ==============================================================

A peer that delivers nothing for :data:`TIMEOUT_S` — between requests,
mid-head or mid-body — is closed without a reply, as is one that does
not drain its reply for that long.  ``Expect: 100-continue`` gets its
interim reply before the body is read.

*Writer.*  One ``sendall`` per response, ``Content-Length`` on every
path, ``Connection: close`` whenever the connection will not be read
again.  A handler that raises is answered ``500`` with
``{"error": repr(error)}`` and its connection closed.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http import HTTPStatus
from typing import Callable, NamedTuple

__all__ = ["Listener", "Request"]

#: Threads blocked in ``accept()``; also the number of keep-alive
#: connections that can be parked at once before the next client waits
#: (at most :data:`TIMEOUT_S`) in the backlog.
WORKERS = 8
#: Seconds a connection may make no progress — idle between requests,
#: stalled inside one, or not reading its reply — before it is closed.
TIMEOUT_S = 5.0
#: Bound on the request line plus headers, terminator excluded.
MAX_HEAD_BYTES = 64 * 1024
MAX_HEADER_LINES = 100
MAX_BODY_BYTES = 1024 * 1024
#: What the routes use; anything else is a 501 at the wire.
METHODS = frozenset({"GET", "POST"})

_SERVER = "repro-serve/1.0"
_JSON = "application/json"
_RECV_BYTES = 64 * 1024
_BACKLOG = 128
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_VERSION = re.compile(r"HTTP/\d+\.\d+")

#: ``handler(request) -> (status, content_type, body)``.
Handler = Callable[["Request"], "tuple[int, str, bytes]"]


class Request(NamedTuple):
    """One parsed request."""

    method: str
    #: The request target as sent; ``path`` and ``query`` are its two
    #: sides of the first ``?``.
    target: str
    path: str
    query: str
    #: Names lower-cased, values stripped.
    headers: dict[str, str]
    body: bytes


class _Reject(Exception):
    """The reader's verdict on a request it will not hand to the handler."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error_body(message: str) -> bytes:
    return json.dumps({"error": message}, indent=2).encode("utf-8")


def _read_request(
    conn: socket.socket, buffer: bytes
) -> tuple[Request, bool, bytes] | None:
    """Read one request from ``buffer`` + ``conn``.

    Returns ``(request, keep_alive, leftover)``; ``None`` when the peer
    closed before completing one (cleanly between requests, or giving up
    inside one); raises :class:`_Reject` for what the wire refuses and
    ``OSError`` (``TimeoutError`` included) for a dead or silent peer.
    """
    while True:
        end = buffer.find(b"\r\n\r\n")
        if end > MAX_HEAD_BYTES or (end < 0 and len(buffer) > MAX_HEAD_BYTES):
            raise _Reject(431, f"request head over {MAX_HEAD_BYTES} bytes")
        if end >= 0:
            break
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            return None
        buffer += chunk
    lines = buffer[:end].decode("latin-1").split("\r\n")
    if len(lines) - 1 > MAX_HEADER_LINES:
        raise _Reject(431, f"more than {MAX_HEADER_LINES} header lines")
    try:
        method, target, version = lines[0].split(" ")
    except ValueError:
        raise _Reject(400, f"malformed request line {lines[0]!r}") from None
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        if _VERSION.fullmatch(version):
            raise _Reject(505, f"unsupported HTTP version {version!r}")
        raise _Reject(400, f"malformed request line {lines[0]!r}")
    if method not in METHODS:
        raise _Reject(501, f"unsupported method {method!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or name.split() != [name]:
            raise _Reject(400, f"malformed header line {line!r}")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    if "transfer-encoding" in headers:
        raise _Reject(501, "Transfer-Encoding is not supported; send Content-Length")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise _Reject(400, f"malformed Content-Length {declared!r}")
    # More digits than the cap has is over it, whatever int() — which has
    # a digit limit of its own — would make of them.
    oversized = len(declared) > len(str(MAX_BODY_BYTES))
    length = MAX_BODY_BYTES + 1 if oversized else int(declared)
    if length > MAX_BODY_BYTES:
        raise _Reject(413, f"request body over {MAX_BODY_BYTES} bytes")
    if version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
        conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    body_end = end + 4 + length
    while len(buffer) < body_end:
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            return None
        buffer += chunk
    path, _, query = target.partition("?")
    keep_alive = (
        version == "HTTP/1.1" and "close" not in headers.get("connection", "").lower()
    )
    request = Request(method, target, path, query, headers, buffer[end + 4 : body_end])
    return request, keep_alive, buffer[body_end:]


def _write_reply(
    conn: socket.socket, status: int, content_type: str, body: bytes, keep_alive: bool
) -> None:
    head = (
        f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\n"
        f"Server: {_SERVER}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if not keep_alive:
        head += "Connection: close\r\n"
    conn.sendall((head + "\r\n").encode("latin-1") + body)


def _discard_unread(conn: socket.socket) -> None:
    """Let a refused peer read its refusal.

    Closing over bytes it already sent (the rest of a long head, a body
    nobody asked for) resets the connection, and the reset can overtake
    the reply.  So: announce the end of output, then drop — never keep —
    at most one body's worth of input, until the peer closes or stalls.
    """
    conn.shutdown(socket.SHUT_WR)
    budget = MAX_BODY_BYTES
    while budget > 0 and (chunk := conn.recv(_RECV_BYTES)):
        budget -= len(chunk)


class Listener:
    """:data:`WORKERS` threads accepting on one bound socket.

    ``on_connect()`` is called once per accepted connection and
    ``on_reject()`` once per request refused at the wire — the two events
    the handler never sees.
    """

    def __init__(
        self,
        address: tuple[str, int],
        handler: Handler,
        on_connect: Callable[[], None] | None = None,
        on_reject: Callable[[], None] | None = None,
    ) -> None:
        self._handler = handler
        self._on_connect = on_connect
        self._on_reject = on_reject
        self._socket = socket.create_server(address, backlog=_BACKLOG)
        host, port = self._socket.getsockname()[:2]
        #: The bound ``(host, port)`` — resolves port 0.
        self.address: tuple[str, int] = (str(host), int(port))
        self._lock = threading.Lock()
        self._stopping = False
        self._connections: set[socket.socket] = set()
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-http-{index}", daemon=True)
            for index in range(WORKERS)
        ]

    def start(self) -> "Listener":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Finish requests in flight, close every connection, join the workers."""
        with self._lock:
            self._stopping = True
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # its worker closed it first
                pass
        # A worker asleep in accept() sees the flag only once it wakes.
        for _ in self._threads:
            try:
                socket.create_connection(self.address, timeout=TIMEOUT_S).close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join()
        self._socket.close()

    def _worker(self) -> None:
        while not self._stopping:
            try:
                conn, _peer = self._socket.accept()
            except OSError:  # e.g. the peer reset while still in the backlog
                continue
            with conn:
                with self._lock:
                    self._connections.add(conn)
                try:
                    # Registered before the flag is read: stop() either
                    # found the connection or had set the flag by now.
                    if not self._stopping:
                        self._serve_connection(conn)
                except OSError:  # silent, reset or not reading: just close
                    pass
                finally:
                    with self._lock:
                        self._connections.discard(conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        if self._on_connect is not None:
            self._on_connect()
        conn.settimeout(TIMEOUT_S)
        # Replies are single writes; Nagle would only hold the second of
        # two pipelined ones for the peer's delayed ACK.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        while True:
            try:
                parsed = _read_request(conn, buffer)
            except _Reject as reject:
                if self._on_reject is not None:
                    self._on_reject()
                _write_reply(conn, reject.status, _JSON, _error_body(str(reject)), False)
                _discard_unread(conn)
                return
            if parsed is None:
                return
            request, keep_alive, buffer = parsed
            try:
                status, content_type, body = self._handler(request)
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                status, content_type, body = 500, _JSON, _error_body(repr(error))
                keep_alive = False
            keep_alive = keep_alive and not self._stopping
            _write_reply(conn, status, content_type, body, keep_alive)
            if not keep_alive:
                return
