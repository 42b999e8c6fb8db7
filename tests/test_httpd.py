"""The wire contract of :mod:`repro.httpd`, against a stub handler.

No world is built: a :class:`Listener` with an echoing handler binds an
ephemeral port, so each test is milliseconds.  Every refusal is checked
to *fail closed*: the status, then EOF.
"""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro import httpd


def echo(request: httpd.Request):
    """Reply with what the reader parsed (``/boom`` raises instead)."""
    if request.path == "/boom":
        raise RuntimeError("kaboom")
    payload = {
        "method": request.method,
        "target": request.target,
        "path": request.path,
        "query": request.query,
        "headers": request.headers,
        "body": request.body.decode("utf-8"),
    }
    return 200, "application/json", json.dumps(payload).encode("utf-8")


class Events:
    """Counts the two events the handler never sees."""

    def __init__(self) -> None:
        self.connections = 0
        self.rejections = 0
        self._lock = threading.Lock()

    def connected(self) -> None:
        with self._lock:
            self.connections += 1

    def rejected(self) -> None:
        with self._lock:
            self.rejections += 1


@pytest.fixture
def events():
    return Events()


@pytest.fixture
def listener(events):
    running = httpd.Listener(
        ("127.0.0.1", 0), echo, on_connect=events.connected, on_reject=events.rejected
    ).start()
    yield running
    running.stop()


def connect(listener) -> socket.socket:
    return socket.create_connection(listener.address, timeout=10)


def read_to_eof(conn: socket.socket) -> bytes:
    chunks = []
    while chunk := conn.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def exchange(listener, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; everything until the server closes."""
    with connect(listener) as conn:
        conn.sendall(data)
        return read_to_eof(conn)


def replies(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream of ``Content-Length`` replies into (status, headers, body)."""
    parsed = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(headers.get("content-length", 0))
        parsed.append((int(status_line.split(" ")[1]), headers, raw[:length]))
        raw = raw[length:]
    return parsed


def only_reply(raw: bytes) -> tuple[int, dict, bytes]:
    (reply,) = replies(raw)
    return reply


class TestKeepAlive:
    def test_three_requests_on_one_client_connection_reuse_one_socket(
        self, listener, events
    ):
        client = http.client.HTTPConnection(*listener.address, timeout=10)
        try:
            for target in ("/a", "/b"):
                client.request("GET", target)
                response = client.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["target"] == target
            sock = client.sock
            client.request("POST", "/c?x=1", body=b"hello")
            echoed = json.loads(client.getresponse().read())
            assert client.sock is sock, "the client had to reconnect"
        finally:
            client.close()
        assert echoed["path"] == "/c" and echoed["query"] == "x=1"
        assert echoed["body"] == "hello"
        assert echoed["headers"]["content-length"] == "5"
        assert events.connections == 1

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /a HTTP/1.0\r\nHost: x\r\n\r\n",
            b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "http-1.0-keep-alive", "connection-close"],
    )
    def test_close_is_announced_and_done(self, listener, request_bytes):
        # read_to_eof returning at all is the EOF.
        status, headers, body = only_reply(exchange(listener, request_bytes))
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["target"] == "/a"

    def test_keep_alive_reply_carries_no_connection_close(self, listener):
        with connect(listener) as conn:
            conn.sendall(b"GET /a HTTP/1.1\r\n\r\n")
            head = conn.recv(65536).partition(b"\r\n\r\n")[0].lower()
        assert b"connection:" not in head
        assert b"content-length:" in head

    def test_two_pipelined_requests_in_one_send_get_two_replies_in_order(
        self, listener, events
    ):
        raw = exchange(
            listener,
            b"POST /first HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
            b"GET /second HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        first, second = replies(raw)
        assert json.loads(first[2])["target"] == "/first"
        assert json.loads(first[2])["body"] == "abc"
        assert json.loads(second[2])["target"] == "/second"
        assert events.connections == 1

    def test_repeated_header_names_are_joined(self, listener):
        raw = exchange(
            listener, b"GET / HTTP/1.0\r\nX-Tag: a\r\nx-tag:  b \r\n\r\n"
        )
        assert json.loads(only_reply(raw)[2])["headers"]["x-tag"] == "a, b"


REFUSALS = {
    "request-line-two-words": (b"GET /\r\n\r\n", 400),
    "request-line-four-words": (b"GET / extra HTTP/1.1\r\n\r\n", 400),
    "request-line-garbage": (b"GARBAGE\r\n\r\n", 400),
    "version-not-http": (b"GET / FTP/1.1\r\n\r\n", 400),
    "header-without-colon": (b"GET / HTTP/1.1\r\nHost x\r\n\r\n", 400),
    "header-folded": (b"GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n", 400),
    "header-space-before-colon": (b"GET / HTTP/1.1\r\nA : b\r\n\r\n", 400),
    "content-length-word": (b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    "content-length-negative": (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "content-length-signed": (b"POST / HTTP/1.1\r\nContent-Length: +1\r\n\r\n", 400),
    "content-length-empty": (b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n", 400),
    "content-length-superscript": (
        b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
        400,
    ),
    "content-length-twice": (
        b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
        400,
    ),
    "http-2.0": (b"GET / HTTP/2.0\r\n\r\n", 505),
    "http-0.9": (b"GET / HTTP/0.9\r\n\r\n", 505),
    "http-1.2": (b"GET / HTTP/1.2\r\n\r\n", 505),
    "head-too-long": (
        b"GET / HTTP/1.1\r\nX: " + b"a" * httpd.MAX_HEAD_BYTES + b"\r\n\r\n",
        431,
    ),
    "head-too-long-unterminated": (b"GET /" + b"a" * (httpd.MAX_HEAD_BYTES + 1), 431),
    "too-many-header-lines": (
        b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (httpd.MAX_HEADER_LINES + 1) + b"\r\n",
        431,
    ),
    "body-over-cap": (
        b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (httpd.MAX_BODY_BYTES + 1),
        413,
    ),
    "body-absurdly-over-cap": (
        b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        413,
    ),
    "transfer-encoding": (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        501,
    ),
    "put": (b"PUT / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    "head": (b"HEAD / HTTP/1.1\r\n\r\n", 501),
}


class TestRefusedAtTheWire:
    @pytest.mark.parametrize(
        "request_bytes, expected", REFUSALS.values(), ids=REFUSALS.keys()
    )
    def test_status_then_the_connection_is_closed(
        self, listener, events, request_bytes, expected
    ):
        # The keep-alive default would leave the connection open: that
        # exchange() returns is the fail-closed half of the contract.
        # (413 is sent with none of the declared body delivered.)
        status, headers, body = only_reply(exchange(listener, request_bytes))
        assert status == expected
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert isinstance(json.loads(body)["error"], str)
        assert events.rejections == 1

    def test_refusal_is_readable_over_bytes_already_sent(self, listener):
        # Closing over unread input resets the connection under the reply.
        for _ in range(20):
            with connect(listener) as conn:
                conn.sendall(
                    b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % (httpd.MAX_BODY_BYTES + 1)
                    + b"b" * (256 * 1024)
                )
                assert only_reply(read_to_eof(conn))[0] == 413

    def test_limits_admit_their_own_value(self, listener, events):
        body = b"b" * httpd.MAX_BODY_BYTES
        lines = b"X: y\r\n" * (httpd.MAX_HEADER_LINES - 1)
        raw = exchange(
            listener,
            b"POST / HTTP/1.0\r\n" + lines + b"Content-Length: %d\r\n\r\n" % len(body)
            + body,
        )
        status, _headers, echoed = only_reply(raw)
        assert status == 200
        assert len(json.loads(echoed)["body"]) == httpd.MAX_BODY_BYTES
        assert events.rejections == 0


class TestExpectContinue:
    def test_interim_reply_precedes_the_body_read(self, listener):
        with connect(listener) as conn:
            conn.sendall(
                b"POST /q HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n\r\n"
            )
            assert conn.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            conn.sendall(b"hi")
            status, _headers, body = only_reply(read_to_eof(conn))
        assert status == 200
        assert json.loads(body)["body"] == "hi"


class TestHandlerRaises:
    def test_500_json_body_and_the_connection_is_closed(self, listener, events):
        status, headers, body = only_reply(
            exchange(listener, b"GET /boom HTTP/1.1\r\n\r\n")
        )
        assert status == 500
        assert headers["connection"] == "close"
        assert body == json.dumps(
            {"error": repr(RuntimeError("kaboom"))}, indent=2
        ).encode()
        # The handler saw it: not a wire-level rejection.
        assert events.rejections == 0

    def test_the_worker_survives(self, listener):
        for _ in range(httpd.WORKERS + 1):
            assert only_reply(exchange(listener, b"GET /boom HTTP/1.1\r\n\r\n"))[0] == 500
        assert only_reply(exchange(listener, b"GET /ok HTTP/1.0\r\n\r\n"))[0] == 200


class TestSilentClients:
    """A peer that stops talking is dropped within ``TIMEOUT_S``."""

    @pytest.fixture
    def lone_worker(self, monkeypatch, events):
        # One worker: "serves the next connection" then proves it was freed.
        monkeypatch.setattr(httpd, "WORKERS", 1)
        monkeypatch.setattr(httpd, "TIMEOUT_S", 0.2)
        running = httpd.Listener(("127.0.0.1", 0), echo, on_reject=events.rejected).start()
        yield running
        running.stop()

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"POST /q HTTP/1.1\r\nContent-Le",
            b"POST /q HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        ],
        ids=["nothing", "stalled-head", "stalled-body"],
    )
    def test_dropped_without_a_reply_and_the_worker_moves_on(
        self, lone_worker, events, sent
    ):
        with connect(lone_worker) as silent:
            silent.sendall(sent)
            started = time.monotonic()
            assert read_to_eof(silent) == b""
            waited = time.monotonic() - started
        assert 0.1 <= waited < 2.0
        status, _headers, _body = only_reply(
            exchange(lone_worker, b"GET /next HTTP/1.0\r\n\r\n")
        )
        assert status == 200
        assert events.rejections == 0

    def test_idle_keep_alive_connection_is_closed(self, lone_worker):
        with connect(lone_worker) as parked:
            parked.sendall(b"GET /a HTTP/1.1\r\n\r\n")
            started = time.monotonic()
            raw = read_to_eof(parked)  # the reply, then the idle close
            waited = time.monotonic() - started
        assert only_reply(raw)[0] == 200
        assert 0.1 <= waited < 2.0


class TestMoreClientsThanWorkers:
    def test_every_client_is_answered(self, listener, events):
        clients = 4 * httpd.WORKERS
        answered: list[str] = []
        errors: list[BaseException] = []
        gate = threading.Barrier(clients)

        def client(index: int) -> None:
            try:
                gate.wait(timeout=10)
                for round_ in range(5):
                    raw = exchange(
                        listener, b"GET /%d/%d HTTP/1.0\r\n\r\n" % (index, round_)
                    )
                    answered.append(json.loads(only_reply(raw)[2])["target"])
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(answered) == sorted(
            f"/{index}/{round_}" for index in range(clients) for round_ in range(5)
        )
        assert events.connections == 5 * clients
        # Each worker untracks its connection after the close the client saw.
        deadline = time.monotonic() + 5
        while listener._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not listener._connections


class TestStop:
    def test_idle_keep_alive_connection_does_not_delay_stop(self):
        listener = httpd.Listener(("127.0.0.1", 0), echo).start()
        with connect(listener) as parked:
            parked.sendall(b"GET /a HTTP/1.1\r\n\r\n")
            assert parked.recv(65536).startswith(b"HTTP/1.1 200")
            started = time.monotonic()
            listener.stop()
            waited = time.monotonic() - started
            assert parked.recv(65536) == b""
        assert waited < httpd.TIMEOUT_S / 5
        with pytest.raises(OSError):
            connect(listener)

    def test_request_in_flight_still_gets_its_reply(self):
        entered, release = threading.Event(), threading.Event()

        def slow(_request):
            entered.set()
            assert release.wait(timeout=10)
            return 200, "text/plain", b"done"

        listener = httpd.Listener(("127.0.0.1", 0), slow).start()
        with connect(listener) as conn:
            conn.sendall(b"GET /slow HTTP/1.1\r\n\r\n")
            assert entered.wait(timeout=10)
            stopper = threading.Thread(target=listener.stop)
            stopper.start()
            time.sleep(0.05)
            assert stopper.is_alive(), "stop() did not wait for the request in flight"
            release.set()
            status, headers, body = only_reply(read_to_eof(conn))
            stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert (status, body) == (200, b"done")
        # Keep-alive was asked for, but the listener is going away.
        assert headers["connection"] == "close"
