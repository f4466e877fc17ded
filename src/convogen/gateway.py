"""HTTP client for chat-completion endpoints, and ``ask``, the one retry
loop for model replies that do not parse.

Concurrency is bounded with a semaphore shared by all worker threads;
transient failures (connection errors, 429/5xx) are retried with
deterministic exponential backoff. Usage is accounted per pipeline stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import requests

from .errors import LlmUnavailable, ProtocolError

TRANSIENT_STATUSES = {429, 500, 502, 503, 504}
ROLES = {"system", "user", "assistant"}

ENV_ENDPOINT = "CONVOGEN_ENDPOINT_URL"
ENV_API_KEY = "CONVOGEN_API_KEY"


def request_digest(messages: list[dict]) -> str:
    """Stable fixture key: hash of the concatenated message contents only,
    so prompts can change sampling parameters without re-recording."""
    joined = "\x1e".join(m.get("content", "") for m in messages)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


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
        endpoint = os.environ.get(ENV_ENDPOINT, self.endpoint_url)
        api_key = os.environ.get(ENV_API_KEY, self.api_key)
        out = GatewayConfig(**{**self.__dict__})
        out.endpoint_url = endpoint
        out.api_key = api_key
        return out


def backoff_delays_s(base_ms: int, retries: int) -> list[float]:
    """Deterministic, non-decreasing exponential backoff schedule."""
    return [base_ms * (2 ** attempt) / 1000.0 for attempt in range(retries)]


class LlmGateway:
    """Thread-safe client; at most ``max_in_flight`` requests outstanding."""

    def __init__(self, cfg: GatewayConfig):
        self.cfg = cfg
        self._session = requests.Session()
        adapter = requests.adapters.HTTPAdapter(
            pool_connections=4, pool_maxsize=max(10, cfg.max_in_flight)
        )
        self._session.mount("http://", adapter)
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
        url = cfg.endpoint_url.rstrip("/") + "/v1/chat/completions"
        payload = {
            "model": req.model,
            "messages": req.messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        headers = {}
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
                        resp = self._session.post(
                            url, json=payload, headers=headers, timeout=cfg.timeout_s
                        )
                    except requests.RequestException as exc:
                        failure = f"transport error: {exc}"
                    else:
                        if resp.status_code == 200:
                            content, usage = self._parse(resp.content)
                            latency_ms = int((time.monotonic() - started) * 1000)
                            self._record(stage, usage, latency_ms, attempt)
                            return ChatResponse(
                                content=content, usage=usage, latency_ms=latency_ms
                            )
                        if resp.status_code in TRANSIENT_STATUSES:
                            failure = f"HTTP {resp.status_code}"
                        else:
                            raise ProtocolError(
                                f"HTTP {resp.status_code}: {resp.text[:200]}"
                            )
                    if attempt >= cfg.retry_budget:
                        self._record(stage, Usage(), 0, attempt)
                        raise LlmUnavailable(
                            f"{failure} after {attempt} retries against {url}"
                        )
                    time.sleep(delays[attempt])
                    attempt += 1
            finally:
                with self._lock:
                    self._in_flight -= 1

    def complete(
        self,
        prompt: str,
        system: Optional[str] = None,
        stage: str = "default",
        seed: Optional[int] = None,
    ) -> str:
        """One-shot convenience wrapper returning the reply text."""
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": prompt})
        req = ChatRequest(
            model=self.cfg.model,
            messages=messages,
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
        requests.get(endpoint_url.rstrip("/") + "/", timeout=timeout_s)
        return True
    except requests.RequestException:
        return False
