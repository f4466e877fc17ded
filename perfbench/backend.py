"""The model stand-in in its own process.

``ScriptedLlmServer`` with ``default_pipeline_rules()`` runs in a
``spawn``-context child, so its regex work and sleeps share neither the
interpreter lock nor the CPU accounting of the pipeline process, as a
remote model would not. The parent talks to it over a pipe: the child
answers ``stats`` and ``drain`` (its ``respond`` spans, when traced) and
exits on ``stop`` or when the parent goes away.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import resource_tracker
from typing import Optional

START_TIMEOUT_S = 60.0


def _serve(conn, latency_base_ms: float, latency_per_char_ms: float, trace: bool) -> None:
    from convogen.scripted_server import ScriptedLlmServer, default_pipeline_rules

    server = ScriptedLlmServer(
        fixtures=default_pipeline_rules(),
        latency_base_ms=latency_base_ms,
        latency_per_char_ms=latency_per_char_ms,
    )
    spans: list[tuple[float, float, int]] = []
    if trace:
        respond = server.respond

        def respond_traced(request, messages):
            start = time.perf_counter()
            status, payload = respond(request, messages)
            spans.append((start, time.perf_counter(), status))
            return status, payload

        server.respond = respond_traced  # the handler looks it up on the instance
    server.start()
    try:
        conn.send(server.url)
        while True:
            try:
                command = conn.recv()
            except EOFError:
                break
            if command == "stats":
                conn.send(server.stats())
            elif command == "drain":
                taken = spans[:]
                del spans[: len(taken)]
                conn.send(taken)
            elif command == "stop":
                break
    finally:
        server.stop()
        conn.close()


class Backend:
    """Context manager owning the child process and its endpoint URL."""

    def __init__(self, latency_base_ms: float = 0.0, latency_per_char_ms: float = 0.0,
                 trace: bool = False):
        self._args = (latency_base_ms, latency_per_char_ms, trace)
        self._conn = None
        self._proc: Optional[multiprocessing.process.BaseProcess] = None
        self.url = ""

    def __enter__(self) -> "Backend":
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(child_conn, *self._args), daemon=True)
        self._proc.start()
        child_conn.close()
        try:
            if not self._conn.poll(START_TIMEOUT_S):
                raise RuntimeError("scripted server process did not start")
            self.url = self._conn.recv()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _ask(self, command: str):
        self._conn.send(command)
        return self._conn.recv()

    def stats(self) -> dict:
        return self._ask("stats")

    def drain(self) -> list[tuple[float, float, int]]:
        """(start, end, status) of every ``respond`` since the last drain."""
        return self._ask("drain")

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send("stop")
        except (OSError, ValueError):
            pass
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
        # starting a spawn child also starts multiprocessing's resource
        # tracker, which is never waited for and would outlive the run;
        # with the child gone, closing its pipe ends it and this reaps it
        resource_tracker._resource_tracker._stop()
