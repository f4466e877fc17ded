"""HTTP client for chat-completion endpoints, and ``ask``, the one retry
loop for model replies that do not parse.

Concurrency is bounded with a semaphore shared by all worker threads;
transient failures (connection errors, 429/5xx) are retried with
deterministic exponential backoff. Usage is accounted per pipeline stage.

The transport is the standard library's ``http.client`` on a pool of
keep-alive connections owned by the gateway, not by a thread: a call takes
an idle connection (or opens one) inside the semaphore and puts it back
after reading the whole response, so the pool never holds more than
``max_in_flight`` connections and outlives the thread pools that use it.
A pooled connection the server closed while it sat idle fails before any
response arrives (``RemoteDisconnected``, ``BrokenPipeError``,
``ConnectionResetError``); the request is then sent once more, at once, on
a fresh connection, and that is not a retry (RFC 9112 section 9.3.1). Any
other transport failure, on a fresh connection included, spends the retry
budget. The gateway connects straight to ``endpoint_url``; proxy settings
in the environment are not read.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional
from urllib.parse import urlsplit

from .errors import LlmUnavailable, ProtocolError

TRANSIENT_STATUSES = {429, 500, 502, 503, 504}
ROLES = {"system", "user", "assistant"}

ENV_ENDPOINT = "CONVOGEN_ENDPOINT_URL"
ENV_API_KEY = "CONVOGEN_API_KEY"

# how a kept-alive connection that the server has closed fails
# (RemoteDisconnected is a ConnectionResetError)
STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class ChatRequest:
    model: str
    messages: list[dict]
    temperature: float = 0.0
    max_tokens: int = 1024
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.messages[0].get("role") not in ("system", "user"):
            raise ValueError("first message role must be system or user")
        for m in self.messages:
            if m.get("role") not in ROLES:
                raise ValueError(f"bad role {m.get('role')!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatResponse:
    content: str
    usage: Usage
    latency_ms: int


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
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.mode not in ("live", "scripted"):
            raise ValueError(f"bad gateway mode {self.mode!r}")
        # sampling settings that every request would reject fail here, at load
        ChatRequest(self.model, [{"role": "user"}], self.temperature, self.max_tokens)

    def with_env_overrides(self) -> "GatewayConfig":
        """Environment overrides credentials/endpoint only."""
        return replace(
            self,
            endpoint_url=os.environ.get(ENV_ENDPOINT, self.endpoint_url),
            api_key=os.environ.get(ENV_API_KEY, self.api_key),
        )


def _endpoint(url: str) -> tuple[type, str, Optional[int], str]:
    """(connection class, host, port, base path) of an http(s) URL."""
    parts = urlsplit(url.rstrip("/"))
    classes = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
    if parts.scheme not in classes or not parts.hostname:
        raise ValueError(f"not an http(s) endpoint: {url!r}")
    return classes[parts.scheme], parts.hostname, parts.port, parts.path


def backoff_delays_s(base_ms: int, retries: int) -> list[float]:
    """Deterministic, non-decreasing exponential backoff schedule."""
    return [base_ms * (2 ** attempt) / 1000.0 for attempt in range(retries)]


class LlmGateway:
    """Thread-safe client; at most ``max_in_flight`` requests outstanding."""

    def __init__(self, cfg: GatewayConfig):
        self.cfg = cfg
        self._url = cfg.endpoint_url.rstrip("/") + "/v1/chat/completions"
        self._connection_class, self._host, self._port, base_path = _endpoint(
            cfg.endpoint_url
        )
        self._path = base_path + "/v1/chat/completions"
        self._idle: list[http.client.HTTPConnection] = []
        self._sem = threading.BoundedSemaphore(cfg.max_in_flight)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._metrics = {
            "requests": 0,
            "retries": 0,
            "max_retries_single_request": 0,
            "high_water_in_flight": 0,
            "stages": {},
        }

    def _record(self, stage: str, usage: Usage, latency_ms: int, retries: int) -> None:
        with self._lock:
            m = self._metrics
            m["requests"] += 1
            m["retries"] += retries
            m["max_retries_single_request"] = max(
                m["max_retries_single_request"], retries
            )
            bucket = m["stages"].setdefault(
                stage,
                {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0, "latency_ms": 0},
            )
            bucket["calls"] += 1
            bucket["prompt_tokens"] += usage.prompt_tokens
            bucket["completion_tokens"] += usage.completion_tokens
            bucket["latency_ms"] += latency_ms

    def metrics_snapshot(self) -> dict:
        with self._lock:
            return {
                **{k: v for k, v in self._metrics.items() if k != "stages"},
                "stages": {k: dict(v) for k, v in self._metrics["stages"].items()},
            }

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _exchange(
        self, conn: http.client.HTTPConnection, body: bytes, headers: dict
    ) -> tuple[int, bytes]:
        """One request and its whole response; the connection goes back to
        the pool if it is still open, and is closed on any failure."""
        try:
            conn.request("POST", self._path, body, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # http.client closes it on "Connection: close"
            with self._lock:
                self._idle.append(conn)
        return resp.status, data

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, body, headers)
            except STALE_CONNECTION:
                pass  # closed while idle: once more on a fresh connection
        fresh = self._connection_class(self._host, self._port, timeout=self.cfg.timeout_s)
        return self._exchange(fresh, body, headers)

    def _parse(self, body: bytes) -> tuple[str, Usage]:
        try:
            data = json.loads(body)
            content = data["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("content is not a string")
            usage = data.get("usage") or {}
            return content, Usage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProtocolError(f"malformed chat-completion body: {exc}") from exc

    def chat(self, req: ChatRequest, stage: str = "default") -> ChatResponse:
        cfg = self.cfg
        payload = {
            "model": req.model,
            "messages": req.messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if cfg.api_key:
            headers["Authorization"] = f"Bearer {cfg.api_key}"
        delays = backoff_delays_s(cfg.backoff_base_ms, cfg.retry_budget)
        with self._sem:
            with self._lock:
                self._in_flight += 1
                self._metrics["high_water_in_flight"] = max(
                    self._metrics["high_water_in_flight"], self._in_flight
                )
            started = time.monotonic()
            try:
                attempt = 0
                while True:
                    failure = None
                    try:
                        status, data = self._post(body, headers)
                    except TRANSPORT_ERRORS as exc:
                        failure = f"transport error: {exc!r}"
                    else:
                        if status == 200:
                            content, usage = self._parse(data)
                            latency_ms = int((time.monotonic() - started) * 1000)
                            self._record(stage, usage, latency_ms, attempt)
                            return ChatResponse(
                                content=content, usage=usage, latency_ms=latency_ms
                            )
                        if status in TRANSIENT_STATUSES:
                            failure = f"HTTP {status}"
                        else:
                            text = data.decode("utf-8", errors="replace")
                            raise ProtocolError(f"HTTP {status}: {text[:200]}")
                    if attempt >= cfg.retry_budget:
                        self._record(stage, Usage(), 0, attempt)
                        raise LlmUnavailable(
                            f"{failure} after {attempt} retries against {self._url}"
                        )
                    time.sleep(delays[attempt])
                    attempt += 1
            finally:
                with self._lock:
                    self._in_flight -= 1

    def complete(self, prompt: str, stage: str = "default", seed: Optional[int] = None) -> str:
        """One-shot convenience wrapper returning the reply text."""
        req = ChatRequest(
            model=self.cfg.model,
            messages=[{"role": "user", "content": prompt}],
            temperature=self.cfg.temperature,
            max_tokens=self.cfg.max_tokens,
            seed=seed,
        )
        return self.chat(req, stage=stage).content


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
        connection_class, host, port, base_path = _endpoint(endpoint_url)
        conn = connection_class(host, port, timeout=timeout_s)
        try:
            conn.request("GET", base_path + "/")
            conn.getresponse().read()
        finally:
            conn.close()
        return True
    except (ValueError, *TRANSPORT_ERRORS):
        return False
