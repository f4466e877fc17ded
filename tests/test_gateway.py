import io
import json
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convogen import gateway, scripted_server
from convogen.errors import ConfigError, LlmUnavailable, ProtocolError
from convogen.gateway import (
    MAX_FIELDS,
    MAX_LINE,
    GatewayConfig,
    LlmGateway,
    _endpoint,
    WireError,
    backoff_delays_s,
    parse_length,
    probe_endpoint,
    read_exact,
    read_fields,
    read_line,
)
from convogen.scripted_server import PROGRAMS, ScriptedLlmServer, load_fixture_file, request_digest


ECHO_RULE = {"pattern": ".", "program": "echo-last-user"}

_opened: list[LlmGateway] = []


def gateway_for(server, **overrides):
    cfg = GatewayConfig(
        endpoint_url=server.url,
        mode="scripted",
        backoff_base_ms=1,
        **overrides,
    )
    gateway = LlmGateway(cfg)
    _opened.append(gateway)
    return gateway


@pytest.fixture(autouse=True)
def close_gateways():
    """Close what ``gateway_for`` opened, so no test leaks a socket."""
    yield
    while _opened:
        _opened.pop().close()


def closed_port_url() -> str:
    """An endpoint URL on a local port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def completion(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def with_length(body: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    return version + b" 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def chunked(body: bytes) -> bytes:
    parts = (body[:7], body[7:])
    chunks = b"".join(b"%x;note=x\r\n%s\r\n" % (len(part), part) for part in parts)
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks
            + b"0\r\nX-Checksum: none\r\n\r\n")


class RawServer:
    """A server thread on a raw socket. The n-th connection it accepts gets
    the n-th list of replies, one per request read; then the server
    half-closes it and keeps whatever the client still sends."""

    def __init__(self, script: list[list[bytes]]):
        self.script = script
        self.accepted = 0
        self.half_closed = 0
        self.heads: list[bytes] = []
        self.bodies: list[bytes] = []
        self.leftover = b""
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve)

    def __enter__(self) -> "RawServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()

    def _read_request(self, reader) -> bool:
        head = b""
        while (line := reader.readline()) not in (b"\r\n", b""):
            head += line
        if not line:
            return False
        self.heads.append(head)
        length = [int(h.split(b":")[1]) for h in head.split(b"\r\n")
                  if h.lower().startswith(b"content-length:")]
        self.bodies.append(reader.read(length[0] if length else 0))
        return True

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            replies = self.script[self.accepted] if self.accepted < len(self.script) else []
            self.accepted += 1
            conn.settimeout(5)
            with conn, conn.makefile("rb") as reader:
                for reply in replies:
                    if not self._read_request(reader):
                        break
                    conn.sendall(reply)
                conn.shutdown(socket.SHUT_WR)
                self.half_closed += 1
                self.leftover += reader.read()

    def wait_half_closed(self, count: int, timeout_s: float = 5.0) -> bool:
        """Whether ``count`` connections have been half-closed in time."""
        deadline = time.monotonic() + timeout_s
        while self.half_closed < count:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True


def head_fields(head: bytes) -> dict[bytes, bytes]:
    """The fields of a request head as ``RawServer`` keeps it."""
    reader = io.BytesIO(head + b"\r\n")
    read_line(reader)
    return read_fields(reader)


class ConnectionLog:
    """Counts the TCP connections a ``ScriptedLlmServer`` accepts and the
    ones it has seen end, by wrapping ``_Handler.setup`` and ``finish``."""

    def __init__(self, monkeypatch):
        self.accepted = 0
        self.ended = 0
        self._lock = threading.Lock()
        setup, finish = scripted_server._Handler.setup, scripted_server._Handler.finish

        def counting_setup(handler):
            with self._lock:
                self.accepted += 1
            setup(handler)

        def counting_finish(handler):
            finish(handler)
            with self._lock:
                self.ended += 1

        monkeypatch.setattr(scripted_server._Handler, "setup", counting_setup)
        monkeypatch.setattr(scripted_server._Handler, "finish", counting_finish)

    def wait_all_ended(self, timeout_s: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self.ended == self.accepted:
                    return True
            time.sleep(0.01)
        return False


SHORT = b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n" + completion("cut")
GARBAGE = b"HTTTP/1.1 2x0 nope\r\n\r\n"
# lengths past ssize_t, which a read of that many bytes cannot take
HUGE_LENGTH = b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n" % (b"9" * 20)
HUGE_CHUNK = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s\r\n" % (b"f" * 17)
# lengths the fields can hold but past the body cap: refused before any read
CAPPED_LENGTH = b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n" % (b"9" * 18)
CAPPED_CHUNK = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s\r\n" % (b"f" * 16)
LONG = completion("sixteen-byte chunks add up past a lowered cap")
SMALL_CHUNKS = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"".join(b"%x\r\n%s\r\n" % (len(LONG[i:i + 16]), LONG[i:i + 16])
                           for i in range(0, len(LONG), 16))
                + b"0\r\n\r\n")
# connection scripts, then per call the reply text or LlmUnavailable, then
# the retries spent; every call of a case runs with retry_budget=1
WIRE_CASES = {
    "chunked-body-with-trailer":
        ([[chunked(completion("one")), chunked(completion("two"))]], ["one", "two"], 0),
    "100-continue-then-200":
        ([[b"HTTP/1.1 100 Continue\r\n\r\n" + with_length(completion("one"))]], ["one"], 0),
    # no Content-Length: the body ends with the stream, and the connection
    # is not pooled, so the next call opens a new one
    "http-1.0-read-to-eof": ([[b"HTTP/1.0 200 OK\r\n\r\n" + completion("one")],
                              [b"HTTP/1.0 200 OK\r\n\r\n" + completion("two")]],
                             ["one", "two"], 0),
    "body-shorter-than-content-length": ([[SHORT], [SHORT]], [LlmUnavailable], 1),
    # the bad reply comes on a pooled connection, and still spends the budget
    "garbage-status-line": ([[with_length(completion("one")), GARBAGE], [GARBAGE]],
                            ["one", LlmUnavailable], 1),
    "content-length-of-20-digits": ([[HUGE_LENGTH], [HUGE_LENGTH]], [LlmUnavailable], 1),
    "chunk-size-of-17-hex-digits": ([[HUGE_CHUNK], [HUGE_CHUNK]], [LlmUnavailable], 1),
    "content-length-of-18-digits": ([[CAPPED_LENGTH], [CAPPED_LENGTH]], [LlmUnavailable], 1),
    "chunk-size-of-16-hex-digits": ([[CAPPED_CHUNK], [CAPPED_CHUNK]], [LlmUnavailable], 1),
    "chunks-past-a-lowered-cap": ([[SMALL_CHUNKS], [SMALL_CHUNKS]], [LlmUnavailable], 1),
}
# the body cap of a case, where it is not gateway.MAX_BODY; each chunk is under it
LOWERED_CAPS = {"chunks-past-a-lowered-cap": 64}


def chat_request(prompt: str, *fields: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    """A whole chat-completion request for ``ScriptedLlmServer``."""
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
    extra = b"".join(field + b"\r\n" for field in fields)
    return (b"POST /v1/chat/completions %s\r\nHost: test\r\n%sContent-Length: %d\r\n\r\n%s"
            % (version, extra, len(body), body))


def talk(server, *sends: bytes, half_close: bool = False) -> bytes:
    """Send each of ``sends`` on one new connection, a moment apart, then
    read until the server ends it; a server that keeps it open fails the
    read with a timeout. ``half_close`` ends the client's side first."""
    with socket.create_connection(server._httpd.server_address[:2], timeout=5) as sock:
        for i, data in enumerate(sends):
            if i:
                time.sleep(0.05)
            sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received = []
        while chunk := sock.recv(65536):
            received.append(chunk)
    return b"".join(received)


def parse_replies(data: bytes) -> list[tuple[int, dict[bytes, bytes], bytes]]:
    """(status, fields, body) of each reply in ``data``, in order."""
    reader, replies = io.BytesIO(data), []
    while line := read_line(reader):
        fields = read_fields(reader)
        body = read_exact(reader, int(fields.get(b"content-length", b"0")))
        replies.append((int(line.split()[1]), fields, body))
    assert reader.read() == b""
    return replies


def reply_text(body: bytes) -> str:
    return json.loads(body)["choices"][0]["message"]["content"]


def closing_post(body: bytes) -> bytes:
    """A chat-completion POST of ``body`` that asks to end its connection."""
    return (b"POST /v1/chat/completions HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))


MALFORMED_REQUESTS = {
    # a read of -1 bytes would wait for the end of the stream, that is, for the client
    "negative-content-length":
        (b"POST /v1/chat/completions HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "non-numeric-content-length":
        (b"POST /v1/chat/completions HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    # int() refuses more than 4300 digits; 19 digits pass it but not a read
    "content-length-of-5000-digits":
        (b"POST /v1/chat/completions HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % (b"9" * 5000),
         400),
    "content-length-of-19-digits":
        (b"POST /v1/chat/completions HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % (b"9" * 19),
         400),
    "chunked-request-body":
        (b"POST /v1/chat/completions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
    "bad-request-line": (b"HELLO THERE\r\n\r\n", 400),
    "request-line-too-long": (b"GET /" + b"a" * (MAX_LINE - 4), 400),
    "too-many-fields": (b"GET / HTTP/1.1\r\n" + b"X-Field: 1\r\n" * (MAX_FIELDS + 1), 400),
    "unknown-method": (b"DELETE /v1/chat/completions HTTP/1.1\r\n\r\n", 501),
    # refused before any interim 100, and before any of the body is read
    "content-length-past-the-cap":
        (b"POST /v1/chat/completions HTTP/1.1\r\nExpect: 100-continue\r\n"
         b"Content-Length: %s\r\n\r\n" % (b"9" * 18), 413),
    # framed, but ``messages`` is not a list of objects with string contents
    "messages-of-strings": (closing_post(b'{"messages": ["x"]}'), 400),
    "content-not-a-string": (closing_post(b'{"messages": [{"content": 5}]}'), 400),
    "messages-a-string": (closing_post(b'{"messages": "abc"}'), 400),
}


class TestScriptedServer:
    def test_digest_fixture_served(self):
        digest = request_digest([{"role": "user", "content": "ping"}])
        with ScriptedLlmServer(fixtures=[{"digest": digest, "response": "pong"}]) as server:
            gw = gateway_for(server)
            out = gw.complete("ping")
        assert out == "pong"
        assert gw.metrics_snapshot()["stages"]["default"]["prompt_tokens"] > 0

    def test_digest_rules_win_over_earlier_pattern_rules(self):
        messages = [{"role": "system", "content": "be brief"}, {"role": "user", "content": "ping"}]
        fixtures = [{"pattern": "ping", "response": "by pattern"},
                    {"digest": request_digest(messages), "response": "by digest"}]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            _, by_digest = server.respond({"messages": messages}, messages)
            _, by_pattern = server.respond({"messages": messages[1:]}, messages[1:])
        assert by_digest["choices"][0]["message"]["content"] == "by digest"
        assert by_pattern["choices"][0]["message"]["content"] == "by pattern"

    def test_concurrent_replies_have_distinct_ids(self):
        # each reply's id is its request number, taken before the latency sleep
        messages = [{"role": "user", "content": "hello"}]
        ids = []
        with ScriptedLlmServer(fixtures=[ECHO_RULE],
                               latency_base_ms=20) as server:
            def call():
                ids.append(server.respond({"messages": messages}, messages)[1]["id"])

            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        assert sorted(ids) == sorted(f"scripted-{n}" for n in range(1, 9))

    def test_accepted_connections_disable_nagle(self, monkeypatch):
        # a reply leaves in one write, but a reply after an interim 100 or
        # after a pipelined one would wait for the client's delayed ACK
        # with Nagle on, ~40 ms
        nodelay = []
        setup = scripted_server._Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(scripted_server._Handler, "setup", recording_setup)
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            gw = gateway_for(server)
            assert gw.complete("one") == "one"
            assert gw.complete("two") == "two"
        assert nodelay and all(nodelay)

    def test_stop_on_idle_server_is_prompt(self):
        # stop() waits for serve_forever's next poll; the default poll
        # interval of 0.5 s was paid by almost every scripted run
        server = ScriptedLlmServer(fixtures=[]).start()
        time.sleep(0.1)
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 0.25
        assert not server._thread.is_alive()

    def test_stop_before_start_returns_at_once(self):
        stopper = threading.Thread(target=ScriptedLlmServer(fixtures=[]).stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_kept_alive_calls_each_reply_in_one_write(self, monkeypatch):
        writes: list[list[bytes]] = []  # per accepted connection
        setup = scripted_server._Handler.setup

        def recording_setup(handler):
            setup(handler)
            sent, write = [], handler.wfile.write
            writes.append(sent)
            handler.wfile.write = lambda data: sent.append(bytes(data)) or write(data)

        monkeypatch.setattr(scripted_server._Handler, "setup", recording_setup)
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            gw = gateway_for(server)
            assert [gw.complete(f"call {i}") for i in range(10)] == [
                f"call {i}" for i in range(10)]
        assert len(writes) == 1 and len(writes[0]) == 10
        for i, data in enumerate(writes[0]):
            [(status, fields, body)] = parse_replies(data)
            assert status == 200 and reply_text(body) == f"call {i}"
            assert fields[b"content-type"] == b"application/json"

    @pytest.mark.parametrize("request_bytes", [
        chat_request("once", version=b"HTTP/1.0"), chat_request("once", b"Connection: close"),
    ], ids=["http-1.0", "connection-close"])
    def test_connection_ends_after_the_reply(self, request_bytes):
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            [(status, fields, body)] = parse_replies(talk(server, request_bytes))
        assert status == 200 and reply_text(body) == "once"
        assert fields[b"connection"] == b"close"

    def test_pipelined_requests_are_answered_in_order(self):
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            data = talk(server, chat_request("first") + chat_request("second"), half_close=True)
        assert [(status, reply_text(body)) for status, _, body in parse_replies(data)] == [
            (200, "first"), (200, "second")]

    def test_body_split_across_two_sends(self):
        request = chat_request("split body")
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            data = talk(server, request[:-10], request[-10:], half_close=True)
        [(status, _, body)] = parse_replies(data)
        assert status == 200 and reply_text(body) == "split body"

    def test_get_body_is_read_before_the_next_request(self):
        # every request body is framed by Content-Length, whatever the method
        with ScriptedLlmServer(fixtures=[]) as server:
            data = talk(server, b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                        + b"GET / HTTP/1.1\r\n\r\n", half_close=True)
        assert [status for status, _, _ in parse_replies(data)] == [200, 200]

    def test_expect_100_continue_gets_an_interim_reply(self):
        request = chat_request("large", b"Expect: 100-continue")
        head, body = request.split(b"\r\n\r\n", 1)
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            with socket.create_connection(server._httpd.server_address[:2], timeout=5) as sock:
                sock.sendall(head + b"\r\n\r\n")
                interim = sock.recv(65536)
                sock.sendall(body)
                sock.shutdown(socket.SHUT_WR)
                rest = b""
                while chunk := sock.recv(65536):
                    rest += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        [(status, _, reply)] = parse_replies(rest)
        assert status == 200 and reply_text(reply) == "large"

    def test_expect_100_continue_from_http_1_0_gets_no_interim_reply(self):
        # RFC 9110 section 10.1.1: the expectation is ignored from an HTTP/1.0 client
        request = chat_request("old", b"Expect: 100-continue", version=b"HTTP/1.0")
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            data = talk(server, request)
        assert data.startswith(b"HTTP/1.1 200")
        [(_, _, reply)] = parse_replies(data)
        assert reply_text(reply) == "old"

    @pytest.mark.parametrize("request_bytes, status", MALFORMED_REQUESTS.values(),
                             ids=MALFORMED_REQUESTS.keys())
    def test_malformed_request_is_answered_then_closed(self, request_bytes, status, capsys):
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            [(got, fields, body)] = parse_replies(talk(server, request_bytes))
            assert server.stats()["requests"] == 0
        assert got == status and fields[b"connection"] == b"close"
        assert "error" in json.loads(body)
        assert capsys.readouterr().err == ""

    def test_client_hanging_up_mid_reply_is_quiet(self, capsys):
        with ScriptedLlmServer(fixtures=[ECHO_RULE],
                               latency_base_ms=100) as server:
            ended = threading.Event()
            shutdown_request = server._httpd.shutdown_request

            def recording_shutdown(request):  # runs after any handle_error
                shutdown_request(request)
                ended.set()

            server._httpd.shutdown_request = recording_shutdown
            sock = socket.create_connection(server._httpd.server_address[:2], timeout=5)
            sock.sendall(chat_request("gone"))
            time.sleep(0.02)  # the request is read, the reply not yet written
            # a reset, not a FIN: the reply's write fails
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            assert ended.wait(5)
        assert capsys.readouterr().err == ""

    def test_unknown_digest_is_protocol_error(self):
        with ScriptedLlmServer(fixtures=[]) as server:
            with pytest.raises(ProtocolError):
                gateway_for(server).complete("nothing matches")

    def test_echo_fallback(self):
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
            out = gateway_for(server).complete("echo me")
        assert out == "echo me"

    def test_429_then_success_records_one_retry(self):
        digest = request_digest([{"role": "user", "content": "flaky"}])
        fixtures = [{"digest": digest, "responses": [{"status": 429}, "recovered"]}]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            gw = gateway_for(server)
            out = gw.complete("flaky")
            metrics = gw.metrics_snapshot()
        assert out == "recovered"
        assert metrics["retries"] == 1
        assert metrics["max_retries_single_request"] == 1

    def test_unavailable_after_budget(self):
        fixtures = [{"pattern": ".", "status": 503}]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            gw = gateway_for(server, retry_budget=2)
            with pytest.raises(LlmUnavailable):
                gw.complete("always down")
            metrics = gw.metrics_snapshot()
        assert metrics["max_retries_single_request"] == 2

    def test_pattern_times_budget(self):
        fixtures = [
            {"pattern": "target", "status": 500, "times": 1},
            {"pattern": "target", "response": "fine"},
        ]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            gw = gateway_for(server)
            assert gw.complete("target A") == "fine"
            assert gw.metrics_snapshot()["retries"] == 1
            assert gw.complete("target B") == "fine"

    def test_concurrency_bound_enforced(self):
        fixtures = [{"pattern": ".", "response": "ok"}]
        with ScriptedLlmServer(fixtures=fixtures, latency_base_ms=15) as server:
            gw = gateway_for(server, max_in_flight=8)
            threads = [
                threading.Thread(target=lambda i=i: gw.complete(f"req {i}"))
                for i in range(64)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert stats["requests"] == 64
        assert stats["high_water_in_flight"] <= 8

    def test_bit_deterministic_for_identical_streams(self):
        fixtures = [
            {"pattern": "seq", "responses": ["first", "second", "third"]},
            {"pattern": ".", "response": "static"},
        ]
        stream = ["seq call", "other", "seq call", "seq call", "seq call"]

        def run_stream():
            with ScriptedLlmServer(fixtures=[dict(f) for f in fixtures]) as server:
                gw = gateway_for(server)
                return [gw.complete(c) for c in stream]

        assert run_stream() == run_stream()

    def test_sequence_repeats_last_entry(self):
        fixtures = [{"pattern": "s", "responses": ["a", "b"]}]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            gw = gateway_for(server)
            got = [gw.complete("s") for _ in range(4)]
        assert got == ["a", "b", "b", "b"]

    def test_response_text_that_is_not_a_string_is_served_as_one(self):
        # the simulated latency and the reply both take the text as a string
        fixtures = [{"pattern": "s", "responses": [{"content": 5}, 6]}]
        with ScriptedLlmServer(fixtures=fixtures) as server:
            gw = gateway_for(server)
            got = [gw.complete("s") for _ in range(2)]
        assert got == ["5", "6"]


class TestTransport:
    def test_server_closing_after_every_response(self):
        # an HTTP/1.0 reply ends its connection
        script = [[with_length(completion(f"call {i}"), b"HTTP/1.0")] for i in range(5)]
        with RawServer(script) as server:
            gw = gateway_for(server)
            got = [gw.complete(f"call {i}") for i in range(5)]
            gw.close()
        assert got == [f"call {i}" for i in range(5)]
        assert gw.metrics_snapshot()["retries"] == 0
        assert server.accepted == 5

    def test_idle_connection_closed_by_server_is_resent_not_retried(self):
        # the server keeps announcing keep-alive but half-closes the socket
        # after each response, so every pooled connection is stale when reused
        with RawServer([[with_length(completion(f"call {i}"))] for i in range(5)]) as server:
            gw = gateway_for(server)
            got = []
            for i in range(5):
                got.append(gw.complete(f"call {i}"))
                assert server.wait_half_closed(i + 1)  # the pooled socket is now dead
            gw.close()
        assert got == [f"call {i}" for i in range(5)]
        metrics = gw.metrics_snapshot()
        assert metrics["requests"] == 5 and metrics["retries"] == 0
        assert server.accepted == 5

    def test_failure_on_a_fresh_connection_spends_the_budget(self):
        # a dropped request on a new connection is a transport failure:
        # one connection per attempt, and no free resend
        with RawServer([[]] * 3) as server:
            gw = gateway_for(server, retry_budget=2)
            with pytest.raises(LlmUnavailable, match="transport error"):
                gw.complete("dropped")
        assert gw.metrics_snapshot()["max_retries_single_request"] == 2
        assert server.accepted == 3

    def test_bearer_auth_reaches_the_server(self):
        with RawServer([[with_length(completion("one"))],
                        [with_length(completion("two"))]]) as server:
            for key in ("sk-test", None):
                gw = gateway_for(server, api_key=key)
                gw.complete("call")
                gw.close()  # the server reads one connection at a time
        seen = [head_fields(head).get(b"authorization") for head in server.heads]
        assert seen == [b"Bearer sk-test", None]

    def test_refused_port_is_unavailable_after_the_budget(self):
        gw = LlmGateway(GatewayConfig(endpoint_url=closed_port_url(), retry_budget=2,
                                      backoff_base_ms=1))
        with pytest.raises(LlmUnavailable, match="after 2 retries"):
            gw.complete("anyone there")
        metrics = gw.metrics_snapshot()
        assert metrics["retries"] == 2 and metrics["max_retries_single_request"] == 2

    def test_probe_endpoint(self):
        with ScriptedLlmServer(fixtures=[]) as server:
            assert probe_endpoint(server.url)
        assert not probe_endpoint(closed_port_url(), timeout_s=1.0)
        assert not probe_endpoint("ftp://127.0.0.1/", timeout_s=1.0)

    def test_shared_pool_under_thread_churn_then_close(self, monkeypatch):
        # 16 threads share at most 4 pooled connections; a connection handed
        # to two threads at once would cross their replies
        connections = ConnectionLog(monkeypatch)
        replies = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:
                gw = gateway_for(server, max_in_flight=4)

                def worker(i):
                    replies[i] = [gw.complete(f"req {i}.{k}") for k in range(10)]

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert replies == {i: [f"req {i}.{k}" for k in range(10)] for i in range(16)}
                assert 1 <= connections.accepted <= 4
                assert not connections.wait_all_ended(timeout_s=0.1)  # kept alive
                gw.close()
                assert connections.wait_all_ended()
                # a call after close opens a new connection
                assert gw.complete("again") == "again"
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", WIRE_CASES)
    def test_reply_framing(self, case, monkeypatch):
        script, expected, retries = WIRE_CASES[case]
        monkeypatch.setattr(gateway, "MAX_BODY", LOWERED_CAPS.get(case, gateway.MAX_BODY))
        with RawServer(script) as server:
            gw = LlmGateway(GatewayConfig(endpoint_url=server.url, retry_budget=1,
                                          backoff_base_ms=1, timeout_s=5))
            for i, want in enumerate(expected):
                if want is LlmUnavailable:
                    with pytest.raises(LlmUnavailable, match="transport error"):
                        gw.complete(f"call {i}")
                else:
                    assert gw.complete(f"call {i}") == want
            gw.close()
        assert server.accepted == len(script)  # no more connections than scripted
        assert server.leftover == b""  # no request on a connection that had ended
        assert gw.metrics_snapshot()["retries"] == retries
        port = server.url.rsplit(":", 1)[1].encode()
        assert server.heads[0].startswith(
            b"POST /v1/chat/completions HTTP/1.1\r\nHost: 127.0.0.1:" + port
            + b"\r\nAccept-Encoding: identity\r\n")

    @pytest.mark.parametrize("retry_budget", [0, 1])
    def test_a_reply_dripped_past_the_deadline_spends_the_budget(self, retry_budget):
        # one byte per 20 ms: every read is well within timeout_s, the whole
        # reply is not, and each attempt gets its own deadline
        reply = with_length(completion("ok"))
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        stop, accepted = threading.Event(), []

        def drip():
            for _ in range(retry_budget + 1):
                conn, _ = listener.accept()
                accepted.append(conn)
                with conn:
                    conn.recv(65536)  # the request
                    for i in range(len(reply)):
                        if stop.is_set():
                            return
                        try:
                            conn.sendall(reply[i:i + 1])
                        except OSError:
                            break  # the client gave up on this connection
                        time.sleep(0.02)

        dripper = threading.Thread(target=drip)
        dripper.start()
        try:
            port = listener.getsockname()[1]
            gw = LlmGateway(GatewayConfig(endpoint_url=f"http://127.0.0.1:{port}",
                                          retry_budget=retry_budget, backoff_base_ms=1,
                                          timeout_s=0.5))
            _opened.append(gw)
            started = time.monotonic()
            with pytest.raises(LlmUnavailable, match="transport error: TimeoutError"):
                gw.complete("drip")
            assert time.monotonic() - started < 1.0 * (retry_budget + 1)
        finally:
            stop.set()
            dripper.join(timeout=10)
            listener.close()
        assert not dripper.is_alive()
        assert len(accepted) == retry_budget + 1  # an expired connection is not pooled
        assert gw.metrics_snapshot()["retries"] == retry_budget

    def test_complete_sends_one_user_message_and_a_seed_only_when_given(self):
        replies = [with_length(completion("one")), with_length(completion("two"))]
        with RawServer([replies]) as server:
            gw = LlmGateway(GatewayConfig(endpoint_url=server.url, model="m-7",
                                          temperature=0.5, max_tokens=64, timeout_s=5))
            assert gw.complete("first prompt", seed=0) == "one"
            assert gw.complete("second prompt", stage="verify") == "two"
            gw.close()
        sent = [json.loads(body) for body in server.bodies]
        assert sent == [
            {"model": "m-7", "messages": [{"role": "user", "content": "first prompt"}],
             "temperature": 0.5, "max_tokens": 64, "seed": 0},
            {"model": "m-7", "messages": [{"role": "user", "content": "second prompt"}],
             "temperature": 0.5, "max_tokens": 64},
        ]

    @pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
    def test_https_endpoint_is_verified(self, tmp_path, monkeypatch):
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
             "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1",
             "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(cert)],
            check=True, capture_output=True, timeout=60,
        )
        served = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        served.load_cert_chain(cert, key)
        server = ScriptedLlmServer(fixtures=[ECHO_RULE])
        server._httpd.socket = served.wrap_socket(server._httpd.socket, server_side=True)
        with server:
            url = server.url.replace("http://", "https://")
            untrusted = LlmGateway(GatewayConfig(endpoint_url=url, retry_budget=0))
            with pytest.raises(LlmUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
                untrusted.complete("who are you")
            system_default = ssl.create_default_context
            monkeypatch.setattr(ssl, "create_default_context",
                                lambda: system_default(cafile=str(cert)))
            trusted = LlmGateway(GatewayConfig(endpoint_url=url, retry_budget=0))
            try:
                assert trusted.complete("over tls") == "over tls"
            finally:
                trusted.close()

    def test_failed_call_records_its_time(self):
        # the backoff alone sleeps 20 + 40 ms before the budget runs out
        with ScriptedLlmServer(fixtures=[{"pattern": ".", "status": 503}]) as server:
            gw = LlmGateway(GatewayConfig(endpoint_url=server.url, retry_budget=2,
                                          backoff_base_ms=20))
            with pytest.raises(LlmUnavailable):
                gw.complete("down", stage="verify")
            gw.close()
        bucket = gw.metrics_snapshot()["stages"]["verify"]
        assert set(bucket) == {"calls", "prompt_tokens", "completion_tokens", "latency_ms"}
        assert bucket["calls"] == 1 and bucket["latency_ms"] >= 60

    @pytest.mark.parametrize(
        "url, expected",
        [
            ("http://127.0.0.1:8000", (False, "127.0.0.1", 8000, "")),
            ("https://models.example/v2/", (True, "models.example", None, "/v2")),
        ],
    )
    def test_endpoint_parts(self, url, expected):
        assert _endpoint(url) == expected

    def test_endpoint_needs_http_scheme(self):
        with pytest.raises(ValueError):
            _endpoint("ftp://127.0.0.1:8000")


# ---------------------------------------------------------------------------
# Both HTTP ends fuzzed: whatever bytes arrive, each call or request ends in
# time with a framed answer, and a kept connection stays in step.
# ---------------------------------------------------------------------------

# bytes within one line of a message
IN_LINE = st.binary(max_size=12).map(lambda data: data.replace(b"\n", b""))


def mostly(*good: bytes) -> st.SearchStrategy[bytes]:
    """One of ``good`` three times in four, else bytes of one line."""
    return st.integers(0, 3).flatmap(lambda n: IN_LINE if n == 0 else st.sampled_from(good))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8,
)
BODIES = JSON_VALUES.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=40)
COMPLETIONS = st.builds(
    lambda content, usage: json.dumps(
        {"choices": [{"message": {"content": content}}], **usage}).encode(),
    JSON_VALUES | st.text(max_size=20),
    st.fixed_dictionaries({}, optional={"usage": st.dictionaries(
        st.sampled_from(["prompt_tokens", "completion_tokens"]), JSON_VALUES)}),
)
CHAT_BODIES = st.builds(
    lambda messages: json.dumps({"messages": messages}).encode(),
    st.lists(st.fixed_dictionaries({"role": st.sampled_from(["user", "system"])},
                                   optional={"content": JSON_VALUES}), max_size=3),
)
# lengths that are not a length of this message: refused before any body is read
BAD_LENGTHS = [b"", b"-1", b"1a", b"1 2", b"9" * 18, b"9" * 19]
BAD_CHUNK_SIZES = [b"", b"-1", b"g", b"f" * 16, b"f" * 17]
SENTINEL_REPLY = with_length(completion("sentinel"))
# failed this gate before the fix: a usage count of Infinity, whose int() overflows
INFINITE_USAGE = with_length(
    b'{"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": Infinity}}')
# failed this gate before the fix: a lone surrogate, which UTF-8 cannot encode for the digest
LONE_SURROGATE = chat_request("\ud800")


def chunked_body(body: bytes, cuts: list[int], eol: bytes) -> bytes:
    edges = sorted({0, len(body), *(cut % (len(body) + 1) for cut in cuts)})
    chunks = [body[a:b] for a, b in zip(edges, edges[1:])]
    return b"".join(b"%x%s%s%s" % (len(c), eol, c, eol) for c in chunks) + b"0" + eol + eol


@st.composite
def fuzzed_messages(draw, start_lines, bodies, chunked_ok: bool) -> bytes:
    """One HTTP message whose parts are each drawn well formed or not: start
    line, fields, framing and body. A length it declares is its true length
    or no length at all, so the message ends where its framing says."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    head = [draw(start_lines)]
    head += [name + b": " + value for name, value in draw(st.lists(st.tuples(IN_LINE, IN_LINE),
                                                                  max_size=3))]
    head += draw(st.lists(st.sampled_from([b"Connection: close", b"Connection: keep-alive",
                                           b"Expect: 100-continue"]), max_size=2))
    body = draw(bodies)
    framing = draw(st.sampled_from(["length"] * 4 + ["bad-length", "chunked", "bad-chunk", "none"]))
    if framing == "length":
        head.append(b"Content-Length: %d" % len(body))
    elif framing == "bad-length":
        head.append(b"Content-Length: " + draw(st.sampled_from(BAD_LENGTHS)))
    elif framing in ("chunked", "bad-chunk"):
        head.append(b"Transfer-Encoding: chunked")
        if framing == "bad-chunk":
            body = draw(st.sampled_from(BAD_CHUNK_SIZES)) + eol + body
        elif chunked_ok:
            body = chunked_body(body, draw(st.lists(st.integers(0, 64), max_size=3)), eol)
    elif not chunked_ok:
        body = b""  # a request without a length has no body
    return b"".join(line + eol for line in head) + eol + body


def fuzzed_replies():
    status_lines = st.builds(
        lambda version, status: version + b" " + status,
        mostly(b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2"),
        mostly(b"200 OK", b"200 OK", b"200 OK", b"100 Continue", b"204 No Content",
               b"404 Not Found", b"429 Too Many Requests", b"2000 X", b"2x0"),
    )
    return fuzzed_messages(status_lines, COMPLETIONS | COMPLETIONS | BODIES, chunked_ok=True)


def fuzzed_requests():
    request_lines = st.builds(
        lambda method, path, version: b" ".join((method, path, version)),
        mostly(b"POST", b"POST", b"GET", b"PUT"),
        mostly(b"/v1/chat/completions", b"/v1/chat/completions", b"/"),
        mostly(b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2"),
    )
    return fuzzed_messages(request_lines, CHAT_BODIES | CHAT_BODIES | BODIES, chunked_ok=False)


def final_replies(data: bytes) -> list[tuple[int, dict[bytes, bytes], bytes]]:
    """The replies in ``data`` past any 1xx, each an HTTP/1.1 status line and
    a body framed by Content-Length; nothing follows the last."""
    reader, replies = io.BytesIO(data), []
    while line := read_line(reader):
        version, code, _ = line.split(b" ", 2)
        assert version == b"HTTP/1.1" and len(code) == 3 and code.isdigit(), line
        fields = read_fields(reader)
        if int(code) >= 200:
            replies.append((int(code), fields, read_exact(reader, int(fields[b"content-length"]))))
    assert reader.read() == b""
    return replies


def call_in_time(gw: LlmGateway, prompt: str):
    """The reply text, or the class of the error the call raised, within 1 s."""
    started = time.monotonic()
    try:
        outcome = gw.complete(prompt)
    except (LlmUnavailable, ProtocolError) as exc:
        outcome = type(exc)
    assert time.monotonic() - started < 1.0
    return outcome


class TestWireFuzz:
    @settings(max_examples=100, deadline=None)
    @given(stream=st.binary(min_size=1, max_size=64) | fuzzed_replies())
    @example(stream=INFINITE_USAGE)
    def test_any_reply_stream_ends_each_call_in_time(self, stream):
        # the bytes, then a well-formed reply, on one connection that the
        # server then half-closes: a cut message ends at the stream's end
        with RawServer([[stream + SENTINEL_REPLY]]) as server:
            gw = LlmGateway(GatewayConfig(endpoint_url=server.url, retry_budget=0,
                                          timeout_s=0.3))
            try:
                first = call_in_time(gw, "first")
                pooled = bool(gw._idle)
                second = call_in_time(gw, "second")
            finally:
                gw.close()
        # a reply read whole and kept: the next reply on it is the sentinel
        if isinstance(first, str) and first != "sentinel" and pooled:
            assert second == "sentinel"

    def test_any_request_stream_is_answered_in_time(self, capsys):
        with ScriptedLlmServer(fixtures=[ECHO_RULE]) as server:

            @settings(max_examples=100, deadline=None)
            @given(stream=fuzzed_requests())
            @example(stream=LONE_SURROGATE)
            def check(stream):
                started = time.monotonic()
                data = talk(server, stream + chat_request("sentinel"), half_close=True)
                assert time.monotonic() - started < 1.0
                replies = final_replies(data)
                assert replies, "no reply"
                # a request read whole and kept: the next request is answered
                if b"close" not in replies[0][1].get(b"connection", b""):
                    assert [(status, reply_text(body)) for status, _, body in replies[1:]] \
                        == [(200, "sentinel")]
                else:
                    assert len(replies) == 1

            check()
        assert capsys.readouterr().err == ""


class TestLengthFields:
    @pytest.mark.parametrize("field, base, value", [
        (b"0", 10, 0), (b"007", 10, 7), (b"9" * 18, 10, 10**18 - 1),
        (b"fF", 16, 255), (b"f" * 16, 16, 16**16 - 1),
    ])
    def test_digits_within_the_bound_parse(self, field, base, value):
        assert parse_length(field, base) == value

    @pytest.mark.parametrize("field, base", [
        (b"", 10), (b"9" * 19, 10), (b"-1", 10), (b"+5", 10), (b" 5", 10), (b"5_0", 10),
        (b"\xd9\xa3", 10), (b"a", 10), (b"", 16), (b"f" * 17, 16), (b"0x1", 16), (b"-f", 16),
    ])
    def test_anything_else_is_a_wire_error(self, field, base):
        with pytest.raises(WireError):
            parse_length(field, base)


class TestBackoff:
    def test_delays_non_decreasing_and_exponential(self):
        delays = backoff_delays_s(50, 4)
        assert delays == [0.05, 0.1, 0.2, 0.4]
        assert delays == sorted(delays)


class TestPrograms:
    def test_qa_statements_counts_match(self):
        prompt = "Rewrite each...\n1. Q: Color? A: Red\n2. Q: Size? A: Big"
        out = PROGRAMS["qa-statements"]({}, prompt)
        assert out.splitlines() == [
            "1. The answer to 'Color?' is Red.",
            "2. The answer to 'Size?' is Big.",
        ]

    def test_tree_sentences_reads_labels_and_groups(self):
        prompt = (
            "Convert...\nperson [tall] center=(10,20) size=5x5\n"
            "  3 apples center=(30,40) avg_size=4x4"
        )
        out = PROGRAMS["tree-sentences"]({}, prompt)
        assert "There is a person at (10, 20)." in out
        assert "There are 3 apples near (30, 40)." in out

    def test_single_turn_covers_first_two_sentences(self):
        prompt = "Facts:\n1. Fact one here.\n2. Fact two here.\n3. Fact three."
        out = PROGRAMS["single-turn"]({}, prompt)
        assert out.startswith("Human: ")
        assert "Fact one here. Fact two here." in out

    def test_full_conversation_covers_sentences_in_pairs(self):
        prompt = "Facts:\n1. Alpha.\n2. Beta.\n3. Gamma.\n4. Delta.\n5. Echo."
        out = PROGRAMS["full-conversation"]({}, prompt)
        assert out.count("Human:") == 3
        assert "Alpha. Beta." in out and "Gamma. Delta." in out and "Echo." in out


class TestFixtureFile:
    def test_load_fixture_file(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_text(
            '{"digest": "abc", "response": "hi"}\n'
            '{"pattern": "x", "program": "echo-last-user"}\n'
        )
        rules = load_fixture_file(path)
        assert len(rules) == 2
        assert rules[0]["digest"] == "abc"

    def test_empty_responses_is_a_config_error(self, tmp_path):
        # a rule with no responses matches and then has nothing to serve
        path = tmp_path / "fixtures.jsonl"
        path.write_text('{"digest": "abc", "response": "hi"}\n{"digest": "a", "responses": []}\n')
        with pytest.raises(ConfigError, match=r"fixtures\.jsonl, line 2: .*responses"):
            load_fixture_file(path)
