"""HTTP client for chat-completion endpoints, and ``ask``, the one retry
loop for model replies that do not parse.

Concurrency is bounded with a semaphore shared by all worker threads;
transient failures (connection errors, 429/5xx) are retried with
deterministic exponential backoff. Usage is accounted per pipeline stage.

The transport is a small HTTP/1.1 client of its own. Head and body go out
in one ``sendall``; the reader skips 1xx replies, reads chunked and
``Content-Length`` bodies (else to the end of the stream), caps lines
and fields as ``http.client`` does, takes a length only as 1-18 decimal
or 1-16 hex digits and a body only up to ``MAX_BODY`` bytes;
``scripted_server`` reads requests with the same ``read_line``,
``read_fields``, ``parse_length`` and ``read_exact``.
``https`` is verified against the system's CA certificates, and ``ssl``
is imported only for it; proxy settings are not read. ``timeout_s`` is a
deadline for each attempt, from its send to the reply's last byte, kept to
10 ms. At most ``max_in_flight`` keep-alive connections are pooled, each
only when its reader holds no byte past the reply it framed. A pooled
one that the server closed while idle is sent once more on a fresh
connection, which is not a retry (RFC 9112 section 9.3.1); any other
failure spends the budget.
"""

from __future__ import annotations

import io
import json
import os
import re
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Optional
from urllib.parse import urlsplit

from .errors import LlmUnavailable, ProtocolError

if TYPE_CHECKING:
    import ssl

TRANSIENT_STATUSES = {429, 500, 502, 503, 504}

ENV_ENDPOINT = "CONVOGEN_ENDPOINT_URL"
ENV_API_KEY = "CONVOGEN_API_KEY"

MAX_LINE, MAX_FIELDS = 65536, 100  # as http.client: bytes a line, fields a header
MAX_BODY = 16 << 20  # bytes a body, far above any prompt or reply
# a Content-Length in decimal, a chunk size in hex
_LENGTHS = {10: re.compile(rb"[0-9]{1,18}"), 16: re.compile(rb"[0-9A-Fa-f]{1,16}")}


class WireError(ValueError):
    """A reply that breaks HTTP/1.1 framing."""


class StaleConnection(ConnectionError):
    """The server closed a kept-alive connection before any reply arrived."""


TRANSPORT_ERRORS = (OSError, ValueError)  # ValueError: a reply that cannot be framed


@dataclass
class GatewayConfig:
    endpoint_url: str = "http://127.0.0.1:8000"
    max_in_flight: int = 8
    retry_budget: int = 3
    backoff_base_ms: int = 50
    mode: str = "live"  # "live" | "scripted"
    model: str = "local-model"
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout_s: float = 60.0
    api_key: Optional[str] = None

    def __post_init__(self):
        # settings that would fail every call fail here, at load
        try:
            _endpoint(self.endpoint_url)
        except ValueError as exc:
            raise ValueError(f"endpoint_url {self.endpoint_url!r}: {exc}") from None
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.mode not in ("live", "scripted"):
            raise ValueError(f"bad gateway mode {self.mode!r}")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

    def with_env_overrides(self) -> "GatewayConfig":
        """Environment overrides credentials/endpoint only."""
        return replace(self, endpoint_url=os.environ.get(ENV_ENDPOINT, self.endpoint_url),
                       api_key=os.environ.get(ENV_API_KEY, self.api_key))


def _endpoint(url: str) -> tuple[bool, str, Optional[int], str]:
    """(tls, host, port, base path) of an http(s) URL; a ``ValueError`` for
    another scheme, no host or a port that is not in 0-65535."""
    parts = urlsplit(url.rstrip("/"))
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http(s) URL with a host")
    return parts.scheme == "https", parts.hostname, parts.port, parts.path


def _tls_context(tls: bool) -> Optional[ssl.SSLContext]:
    if not tls:
        return None
    import ssl  # only here: a plain-HTTP worker never maps the TLS library
    context = ssl.create_default_context()  # checks certificate and host
    context.set_alpn_protocols(["http/1.1"])
    return context


def _head(method: str, path: str, tls: bool, host: str, port: Optional[int], *fields) -> bytes:
    """A request head up to its blank line: ``Host``, ``Accept-Encoding``, ``fields``."""
    if not all(field.isprintable() for field in fields):
        raise ValueError("a header field holds a control character")
    authority = f"[{host}]" if ":" in host else host
    if port is not None and port != (443 if tls else 80):
        authority += f":{port}"
    lines = (f"{method} {path} HTTP/1.1", f"Host: {authority}", "Accept-Encoding: identity")
    return "\r\n".join((*lines, *fields, "")).encode("latin-1")


def read_line(reader) -> bytes:
    """One line, its line end included; ``b""`` at the end of the stream."""
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise WireError(f"line longer than {MAX_LINE} bytes")
    return line


def parse_length(field: bytes, base: int = 10) -> int:
    """A ``Content-Length`` (base 10) or chunk size (base 16): 1-18 decimal
    or 1-16 hex digits and nothing else, or a ``WireError``."""
    if not _LENGTHS[base].fullmatch(field):
        raise WireError(f"bad length {field[:40]!r}")
    return int(field, base)


def _within_cap(size: int) -> int:
    """``size``, or a ``WireError`` when a body that long passes ``MAX_BODY``."""
    if size > MAX_BODY:
        raise WireError(f"body of {size} bytes is over the cap of {MAX_BODY}")
    return size


def read_exact(reader, size: int) -> bytes:
    """``size`` bytes, or a ``WireError`` when the stream ends first or
    ``size`` passes ``MAX_BODY``; nothing is read past the cap."""
    data = reader.read(_within_cap(size))
    if len(data) != size:
        raise WireError(f"body of {size} bytes ended after {len(data)}")
    return data


def read_fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields by lower-case name; repeats join with commas."""
    fields: dict[bytes, bytes] = {}
    for _ in range(MAX_FIELDS + 1):
        line = read_line(reader)
        if not line.strip():
            return fields
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise WireError(f"more than {MAX_FIELDS} fields")


def keeps_alive(version: bytes, fields: dict[bytes, bytes]) -> bool:
    """HTTP/1.1 without ``Connection: close`` keeps the connection open
    (RFC 9112 section 9.3); HTTP/1.0 closes it."""
    return version == b"HTTP/1.1" and b"close" not in fields.get(b"connection", b"").lower()


class _DeadlineReader(io.RawIOBase):
    """A socket's reads, none waiting past ``deadline`` (monotonic) by more than 10 ms."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("no whole reply within the deadline")
        if self.sock.gettimeout() > left + 0.01:  # settimeout hands the GIL over: only if due
            self.sock.settimeout(left)
        return self.sock.recv_into(buffer)


class _Connection:
    """One HTTP/1.1 connection: a socket and a buffered reader of its replies."""

    def __init__(self, host: str, port: Optional[int], timeout_s: float,
                 tls: Optional[ssl.SSLContext]):
        sock = socket.create_connection((host, port or (443 if tls else 80)), timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # a failed handshake closes the socket, which the TLS socket has taken over
        self.sock = tls.wrap_socket(sock, server_hostname=host) if tls else sock
        self.timeout_s = timeout_s
        self.reader = io.BufferedReader(_DeadlineReader(self.sock))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def drained(self) -> bool:
        """Whether the reader holds no byte past the last reply; reads nothing from the socket."""
        self.reader.raw.deadline = 0.0  # so a read of the socket raises at once
        try:
            return not self.reader.peek(1)
        except TimeoutError:
            return True

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send a whole request; the final reply's status, body and keep-alive."""
        reader = self.reader
        reader.raw.deadline = time.monotonic() + self.timeout_s  # else TimeoutError
        try:
            if self.sock.gettimeout() != self.timeout_s:  # a read cut it short
                self.sock.settimeout(self.timeout_s)
            self.sock.sendall(request)
            line = read_line(reader)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise StaleConnection(repr(exc)) from exc
        if not line:
            raise StaleConnection("closed before a status line")
        while True:  # an interim 1xx reply has no body
            version, code = (line.split(None, 2) + [b"", b""])[:2]
            if version not in (b"HTTP/1.1", b"HTTP/1.0") or len(code) != 3 or not code.isdigit():
                raise WireError(f"bad status line {line[:80]!r}")
            status, fields = int(code), read_fields(reader)
            if status >= 200:
                break
            line = read_line(reader)
        keep = keeps_alive(version, fields)
        coding = fields.get(b"transfer-encoding", b"").lower()
        if status in (204, 304):
            return status, b"", keep
        if coding.endswith(b"chunked"):
            chunks, total = [], 0
            while size := parse_length(read_line(reader).split(b";", 1)[0].strip(), 16):
                total = _within_cap(total + size)  # the cap holds for the sum of chunks
                chunks.append(read_exact(reader, size))
                read_line(reader)  # the line end after the chunk
            read_fields(reader)  # the trailer, dropped
            return status, b"".join(chunks), keep
        if coding or b"content-length" not in fields:
            data = reader.read(MAX_BODY + 1)  # the body ends with the stream
            _within_cap(len(data))
            return status, data, False
        return status, read_exact(reader, parse_length(fields[b"content-length"])), keep


def backoff_delays_s(base_ms: int, retries: int) -> list[float]:
    """Deterministic, non-decreasing exponential backoff schedule."""
    return [base_ms * (2 ** attempt) / 1000.0 for attempt in range(retries)]


class LlmGateway:
    """Thread-safe client; at most ``max_in_flight`` requests outstanding."""

    def __init__(self, cfg: GatewayConfig):
        self.cfg = cfg
        self._url = cfg.endpoint_url.rstrip("/") + "/v1/chat/completions"
        tls, self._host, self._port, base_path = _endpoint(cfg.endpoint_url)
        self._tls = _tls_context(tls)  # one context for every connection
        auth = [f"Authorization: Bearer {cfg.api_key}"] if cfg.api_key else []
        self._head = _head("POST", base_path + "/v1/chat/completions", tls, self._host,
                           self._port, "Content-Type: application/json", *auth)
        self._idle: list[_Connection] = []
        self._sem = threading.BoundedSemaphore(cfg.max_in_flight)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._metrics = {"requests": 0, "retries": 0, "max_retries_single_request": 0,
                         "high_water_in_flight": 0, "stages": {}}

    def _record(self, stage: str, prompt_tokens: int, completion_tokens: int,
                latency_ms: int, retries: int) -> None:
        with self._lock:
            m = self._metrics
            m["requests"] += 1
            m["retries"] += retries
            m["max_retries_single_request"] = max(m["max_retries_single_request"], retries)
            bucket = m["stages"].setdefault(stage, dict.fromkeys(
                ("calls", "prompt_tokens", "completion_tokens", "latency_ms"), 0))
            bucket["calls"] += 1
            bucket["prompt_tokens"] += prompt_tokens
            bucket["completion_tokens"] += completion_tokens
            bucket["latency_ms"] += latency_ms

    def metrics_snapshot(self) -> dict:
        with self._lock:
            m = self._metrics
            return {**m, "stages": {k: dict(v) for k, v in m["stages"].items()}}

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _exchange(self, conn: _Connection, request: bytes) -> tuple[int, bytes]:
        """One request and its reply; the connection is pooled again if it can be."""
        try:
            status, data, keep = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if keep and conn.drained():  # bytes past the reply answer no request of ours
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, data

    def _post(self, request: bytes) -> tuple[int, bytes]:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, request)
            except StaleConnection:
                pass  # closed while idle: once more on a fresh connection
        fresh = _Connection(self._host, self._port, self.cfg.timeout_s, self._tls)
        return self._exchange(fresh, request)

    def _parse(self, body: bytes) -> tuple[str, int, int]:
        """(content, prompt tokens, completion tokens) of a reply body."""
        try:
            data = json.loads(body)
            content = data["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("content is not a string")
            usage = data.get("usage") or {}
            return (content, int(usage.get("prompt_tokens", 0)),
                    int(usage.get("completion_tokens", 0)))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                OverflowError) as exc:  # OverflowError: a count of Infinity
            raise ProtocolError(f"malformed chat-completion body: {exc}") from exc

    def complete(self, prompt: str, stage: str = "default", seed: Optional[int] = None) -> str:
        """The reply text to one user message, sent with the configured sampling."""
        cfg = self.cfg
        payload = {"model": cfg.model, "messages": [{"role": "user", "content": prompt}],
                   "temperature": cfg.temperature, "max_tokens": cfg.max_tokens}
        if seed is not None:
            payload["seed"] = seed
        return self.chat(json.dumps(payload).encode("utf-8"), stage=stage)

    def chat(self, body: bytes, stage: str = "default") -> str:
        """Send one JSON request body; the reply text."""
        cfg = self.cfg
        request = b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(body), body)
        delays = backoff_delays_s(cfg.backoff_base_ms, cfg.retry_budget)
        with self._sem:
            with self._lock:
                self._in_flight += 1
                m = self._metrics
                m["high_water_in_flight"] = max(m["high_water_in_flight"], self._in_flight)
            started = time.monotonic()
            try:
                for attempt in range(cfg.retry_budget + 1):
                    try:
                        status, data = self._post(request)
                    except TRANSPORT_ERRORS as exc:
                        failure = f"transport error: {exc!r}"
                    else:
                        if status == 200:
                            content, prompt_tokens, completion_tokens = self._parse(data)
                            latency_ms = int((time.monotonic() - started) * 1000)
                            self._record(stage, prompt_tokens, completion_tokens, latency_ms,
                                         attempt)
                            return content
                        if status in TRANSIENT_STATUSES:
                            failure = f"HTTP {status}"
                        else:
                            text = data.decode("utf-8", errors="replace")
                            raise ProtocolError(f"HTTP {status}: {text[:200]}")
                    if attempt >= cfg.retry_budget:
                        latency_ms = int((time.monotonic() - started) * 1000)
                        self._record(stage, 0, 0, latency_ms, attempt)
                        raise LlmUnavailable(f"{failure} after {attempt} retries "
                                             f"against {self._url}")
                    time.sleep(delays[attempt])
            finally:
                with self._lock:
                    self._in_flight -= 1


def ask(
    llm, prompt: str, stage: str, parse: Callable[[str], Any], attempts: int = 1, seed=None
) -> tuple[Any, int]:
    """Ask until ``parse`` accepts a reply; returns (parsed, calls made).

    ``llm`` is anything with ``complete``. A reply that ``parse`` maps to
    None is asked again, up to ``attempts`` calls; any other value, False
    included, is the answer. An exhausted budget gives (None, attempts),
    and what that means is the caller's rule.
    """
    for call in range(1, attempts + 1):
        parsed = parse(llm.complete(prompt, stage=stage, seed=seed))
        if parsed is not None:
            return parsed, call
    return None, attempts


def probe_endpoint(endpoint_url: str, timeout_s: float = 5.0) -> bool:
    """True when something answers HTTP at the endpoint (any status)."""
    try:
        tls, host, port, base_path = _endpoint(endpoint_url)
        conn = _Connection(host, port, timeout_s, _tls_context(tls))
        try:
            conn.exchange(_head("GET", base_path + "/", tls, host, port) + b"\r\n")
        finally:
            conn.close()
        return True
    except TRANSPORT_ERRORS:
        return False
