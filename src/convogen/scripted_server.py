"""Deterministic stand-in for a chat-completion endpoint.

Requests are answered by digest fixtures first, then by ordered pattern
rules (static text, canned fault statuses, or small built-in response
programs), so whole pipeline runs reproduce offline. Identical ordered
request streams always get identical response streams.
"""

from __future__ import annotations

import hashlib
import json
import re
import socketserver
import threading
import time
from http import HTTPStatus
from pathlib import Path
from typing import Callable, Optional

from .errors import ConfigError
from .gateway import (
    MAX_BODY, WireError, keeps_alive, parse_length, read_exact, read_fields, read_line,
)
from .ingestion import open_input

_NUMBERED = re.compile(r"^\s*(\d+)\.\s+(.*\S)\s*$", re.MULTILINE)
_QA_PAIR = re.compile(r"^\s*(\d+)\.\s*Q:\s*(.*?)\s*A:\s*(.*?)\s*$", re.MULTILINE)
_QA_SINGLE = re.compile(r"^Q:\s*(.*?)\s*$\s*^A:\s*(.*?)\s*$", re.MULTILINE)
_TREE_LINE = re.compile(
    r"^\s*(?:(\d+|several|many)\s+)?([a-z][a-z ]*?)(?:\s*\[[^\]]*\])?"
    r"\s+center=\((-?\d+),(-?\d+)\)",
    re.MULTILINE,
)


def request_digest(messages: list[dict]) -> str:
    """Stable fixture key: hash of the concatenated message contents only,
    so prompts can change sampling parameters without re-recording."""
    joined = "\x1e".join(m.get("content", "") for m in messages)
    # a JSON string may hold a lone surrogate, which strict UTF-8 refuses
    return hashlib.sha256(joined.encode("utf-8", "surrogatepass")).hexdigest()


def _context_sentences(prompt: str) -> list[str]:
    return [text for _, text in _NUMBERED.findall(prompt)]


def _prog_echo_last_user(request: dict, prompt: str) -> str:
    for message in reversed(request.get("messages", [])):
        if message.get("role") == "user":
            return message.get("content", "")
    return ""


def _prog_qa_statements(request: dict, prompt: str) -> str:
    lines = [
        f"{idx}. The answer to '{q}' is {a}."
        for idx, q, a in _QA_PAIR.findall(prompt)
    ]
    return "\n".join(lines) if lines else "1. There is no information."


def _prog_qa_single(request: dict, prompt: str) -> str:
    match = _QA_SINGLE.search(prompt)
    if not match:
        return "There is no information."
    question, answer = match.groups()
    return f"The answer to '{question}' is {answer}."


def _prog_tree_sentences(request: dict, prompt: str) -> str:
    sentences = []
    for count, label, cx, cy in _TREE_LINE.findall(prompt):
        label = label.strip()
        if count:
            sentences.append(f"There are {count} {label} near ({cx}, {cy}).")
        else:
            sentences.append(f"There is a {label} at ({cx}, {cy}).")
    return " ".join(sentences) if sentences else "The scene shows several objects."


def _prog_single_turn(request: dict, prompt: str) -> str:
    sentences = _context_sentences(prompt)
    if not sentences:
        return "Human: What is shown here?\nAssistant: An image."
    covered = " ".join(sentences[:2])
    return f"Human: What stands out in this image?\nAssistant: {covered}"


def _prog_full_conversation(request: dict, prompt: str) -> str:
    """Same content the staged program would emit over its iterations, in
    one response: consecutive two-sentence windows, up to six pairs."""
    sentences = _context_sentences(prompt)
    if not sentences:
        return "Human: What is shown here?\nAssistant: An image."
    blocks = []
    for start in range(0, min(len(sentences), 12), 2):
        covered = " ".join(sentences[start:start + 2])
        blocks.append(f"Human: What stands out in this image?\nAssistant: {covered}")
    return "\n".join(blocks)


PROGRAMS: dict[str, Callable[[dict, str], str]] = {
    "echo-last-user": _prog_echo_last_user,
    "qa-statements": _prog_qa_statements,
    "qa-single": _prog_qa_single,
    "tree-sentences": _prog_tree_sentences,
    "single-turn": _prog_single_turn,
    "full-conversation": _prog_full_conversation,
}


def _entry(entry) -> tuple[int, str]:
    """(status, content) of one response entry; its text is a string, as
    the simulated latency and the reply need."""
    if not isinstance(entry, dict):
        return 200, str(entry)
    if "status" in entry:
        return int(entry["status"]), str(entry.get("body", ""))
    return 200, str(entry.get("content", ""))


class _Rule:
    """One fixture rule, checked whole when it is built, so a request it
    matches always gets its answer; sequences and budgets are stateful."""

    def __init__(self, spec: dict):
        self.digest: Optional[str] = spec.get("digest")
        self.pattern = re.compile(spec["pattern"]) if "pattern" in spec else None
        if self.digest is None and self.pattern is None:
            raise ValueError(f"rule needs a digest or a pattern: {spec}")
        self.program = spec.get("program")
        if self.program is not None and self.program not in PROGRAMS:
            raise ValueError(f"unknown program {self.program!r}")
        if "responses" in spec:
            self.entries = [_entry(entry) for entry in spec["responses"]]
            if not self.entries:
                raise ValueError("responses must be non-empty")
        elif "response" in spec:
            self.entries = [_entry(spec["response"])]
        elif "status" in spec:
            self.entries = [_entry(spec)]
        elif self.program is not None:
            self.entries = None  # program-only rule
        else:
            raise ValueError(f"rule gives no response, responses, status or program: {spec}")
        self.times = spec.get("times")  # None = unlimited matches
        if "times" in spec and (type(self.times) is not int or self.times < 1):
            raise ValueError(f"times must be an int of at least 1, got {self.times!r}")
        self.cursor = 0

    def matches(self, digest: str, prompt: str) -> bool:
        if self.times is not None and self.times <= 0:
            return False
        if self.digest is not None:
            return digest == self.digest
        return bool(self.pattern.search(prompt))

    def resolve(self, request: dict, prompt: str) -> tuple[int, str]:
        """(status, content). Sequences advance and repeat their last entry."""
        if self.times is not None:
            self.times -= 1
        if self.entries is None:
            return 200, PROGRAMS[self.program](request, prompt)
        entry = self.entries[min(self.cursor, len(self.entries) - 1)]
        self.cursor += 1
        return entry


def load_fixture_file(path: str | Path) -> list[dict]:
    """JSON Lines: {"digest","response"} plus the rule extensions above.

    A missing file or a line that is not a valid rule is a config error
    naming the file (and the line).
    """
    rules = []
    with open_input(path, "fixtures") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    rule = json.loads(line)
                    _Rule(rule)  # checked here, where its line is known
                except (ValueError, TypeError, AttributeError, re.error) as exc:
                    raise ConfigError(f"fixtures {path}, line {lineno}: bad rule: {exc!r}") from exc
                rules.append(rule)
    return rules


def default_pipeline_rules() -> list[dict]:
    """Pattern rules matched to the shipped prompt wordings; enough to run
    the whole pipeline offline with deterministic content."""
    return [
        {"pattern": r"Rewrite each question and answer pair", "program": "qa-statements"},
        {"pattern": r"Rewrite the question and answer pair", "program": "qa-single"},
        {"pattern": r"Convert the following scene outline", "program": "tree-sentences"},
        {"pattern": r"Answer yes or no", "response": "Yes."},
        {"pattern": r"numbers of the covered facts", "response": "1, 2"},
        {"pattern": r"KEEP or DROP", "response": "KEEP"},
        {"pattern": r"exactly one question", "program": "single-turn"},
        {"pattern": r"Write a conversation between", "program": "full-conversation"},
        {"pattern": r"detailed description of the image", "program": "full-conversation"},
        {"pattern": r"reasoning question", "program": "single-turn"},
        {"pattern": r"spatial arrangement", "program": "single-turn"},
    ]


_REASONS = {status.value: status.phrase.encode("latin-1") for status in HTTPStatus}


class _Handler(socketserver.StreamRequestHandler):
    """Keep-alive HTTP/1.1 over the gateway's own message framing.

    Each request is read whole, its body framed by ``Content-Length`` for
    any method, before it is answered. A request that cannot be framed
    gets 400, a body over ``MAX_BODY`` 413, a method other than GET and
    POST 501, and each ends the connection, as an HTTP/1.0 request or
    ``Connection: close`` does.
    """

    # an interim 100 or a pipelined reply would otherwise wait on a delayed ACK
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._answer():
                pass
        except OSError:
            pass  # the client hung up; there is no one left to answer

    def _answer(self) -> bool:
        """Read one request and reply to it; False once the connection ends."""
        try:
            line = read_line(self.rfile)
            if not line:
                return False  # closed between requests
            parts = line.split()
            if len(parts) != 3 or parts[2] not in (b"HTTP/1.1", b"HTTP/1.0"):
                raise WireError(f"bad request line {line[:80]!r}")
            method, path, version = parts
            fields = read_fields(self.rfile)
            if b"transfer-encoding" in fields:
                raise WireError("a request body needs a Content-Length")
            length = parse_length(fields.get(b"content-length", b"0"))
            if length > MAX_BODY:  # refused before any of it is asked for
                return self._send(413, {"error": f"body over {MAX_BODY} bytes"}, False)
            # an HTTP/1.0 client gets no 1xx reply (RFC 9110 section 10.1.1)
            if version == b"HTTP/1.1" and b"100-continue" in fields.get(b"expect", b"").lower():
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = read_exact(self.rfile, length)
        except WireError as exc:
            return self._send(400, {"error": str(exc)}, False)
        keep = keeps_alive(version, fields)
        if method == b"GET":
            return self._send(200, {"ok": True}, keep)
        if method != b"POST":
            return self._send(501, {"error": "unsupported method"}, False)
        if path != b"/v1/chat/completions":
            return self._send(404, {"error": "unknown path"}, keep)
        try:
            request = json.loads(body)
            messages = request["messages"]
        except (ValueError, KeyError, TypeError):
            messages = None
        # a list of objects, each content a string: what ``respond`` joins
        if not isinstance(messages, list) or not all(
            isinstance(m, dict) and isinstance(m.get("content", ""), str) for m in messages
        ):
            return self._send(400, {"error": "bad request body"}, keep)
        # looked up per request: a caller may replace ``respond`` on the instance
        status, payload = self.server.owner.respond(request, messages)
        return self._send(status, payload, keep)

    def _send(self, status: int, payload: dict, keep: bool) -> bool:
        """The whole reply in one write; returns ``keep``."""
        body = json.dumps(payload).encode("utf-8")
        close = b"" if keep else b"Connection: close\r\n"
        self.wfile.write(
            b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (status, _REASONS.get(status, b""), len(body), close, body))
        return keep


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ScriptedLlmServer:
    """Serves the chat-completion wire protocol from fixture rules.

    Latency is simulated as ``base_ms + per_char_ms * len(content)``, which
    models a throughput-bound backend where long completions cost more.
    A reply leaves in one write. Accepted connections still set
    ``TCP_NODELAY``: after an interim ``100 Continue``, or after the first
    of two pipelined replies, Nagle's algorithm would hold the reply back
    until the client's delayed ACK, about 40 ms on Linux loopback.
    """

    def __init__(
        self,
        fixtures: Optional[list[dict]] = None,
        latency_base_ms: float = 0.0,
        latency_per_char_ms: float = 0.0,
    ):
        # digest rules are tried before pattern rules, each kind in its given order
        self._rules = sorted((_Rule(spec) for spec in fixtures or []),
                             key=lambda rule: rule.digest is None)
        self.latency_base_ms = latency_base_ms
        self.latency_per_char_ms = latency_per_char_ms
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stats = {"requests": 0, "high_water_in_flight": 0, "by_status": {}}
        self._httpd = _Server(("127.0.0.1", 0), _Handler)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ScriptedLlmServer":
        # stop() waits up to one poll interval for serve_forever to notice
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread:  # shutdown() waits for a serve_forever that has run
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ScriptedLlmServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self._stats["requests"],
                "high_water_in_flight": self._stats["high_water_in_flight"],
                "by_status": dict(self._stats["by_status"]),
            }

    def respond(self, request: dict, messages: list[dict]) -> tuple[int, dict]:
        prompt = "\x1e".join(m.get("content", "") for m in messages)
        # one message that holds the joined contents has the messages' digest
        digest = request_digest([{"content": prompt}])
        with self._lock:
            self._in_flight += 1
            self._stats["requests"] += 1
            number = self._stats["requests"]
            self._stats["high_water_in_flight"] = max(
                self._stats["high_water_in_flight"], self._in_flight
            )
            status, content = self._resolve_locked(request, digest, prompt)
        try:
            delay_ms = self.latency_base_ms + self.latency_per_char_ms * len(content)
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
        finally:
            with self._lock:
                self._in_flight -= 1
                key = str(status)
                self._stats["by_status"][key] = self._stats["by_status"].get(key, 0) + 1
        if status != 200:
            return status, {"error": {"message": f"scripted status {status}", "detail": content}}
        return 200, {
            "id": f"scripted-{number}",
            "object": "chat.completion",
            "model": request.get("model", "scripted"),
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": content},
                    "finish_reason": "stop",
                }
            ],
            "usage": {
                "prompt_tokens": max(len(prompt) // 4, 1),
                "completion_tokens": max(len(content) // 4, 1),
                "total_tokens": max(len(prompt) // 4, 1) + max(len(content) // 4, 1),
            },
        }

    def _resolve_locked(self, request: dict, digest: str, prompt: str) -> tuple[int, str]:
        for rule in self._rules:
            if rule.matches(digest, prompt):
                return rule.resolve(request, prompt)
        return 404, f"no fixture for digest {digest}"
