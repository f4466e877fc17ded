"""In-memory spans, self time, and call-site patching for the traced run.

Spans are recorded from the benchmark's own files by wrapping the public
functions of each layer where the pipeline looks them up (``pipeline`` uses
``from .x import y``, so ``convogen.pipeline.build_scene_tree`` is patched,
not only ``convogen.scene_tree.build_scene_tree``). Nothing in the package
changes, and every patched name is restored afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    image: Optional[str] = None
    batch: Optional[int] = None
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=None):
        return self.attrs.get(key, default) if self.attrs else default


class Tracer:
    """Collects spans from all threads; the parent of a span is the span
    open on the same thread when it starts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.batch: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_image(self, image: Optional[str]) -> None:
        """Tag later spans on this thread with an image id."""
        self._local.image = image

    @contextmanager
    def span(self, name: str, image: Optional[str] = None,
             attrs: Optional[dict] = None) -> Iterator[Span]:
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            name=name,
            start=self.clock(),
            thread=threading.get_ident(),
            image=image if image is not None else getattr(self._local, "image", None),
            batch=self.batch,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs = {**(span.attrs or {}), "error": type(exc).__name__}
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """span_id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


class Patcher:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def traced(tracer: Tracer, name: str, fn: Callable, before=None, after=None) -> Callable:
    """Wrap ``fn`` in a span; ``before(*args, **kwargs)`` and ``after(result)``
    return attributes for it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, attrs=before(*args, **kwargs) if before else None) as span:
            result = fn(*args, **kwargs)
            if after:
                span.attrs = {**(span.attrs or {}), **after(result)}
            return result

    return wrapper


def traced_iter(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function; each step it takes gets its own span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                with tracer.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item
        finally:
            inner.close()

    return wrapper


def instrument(tracer: Tracer) -> Patcher:
    """Patch every traced call site; use the result as a context manager."""
    from convogen import gateway, generation, ingestion, pipeline, rle, scene_tree, sharding

    patcher = Patcher()

    def wrap(owner, attr: str, name: str, before=None, after=None) -> None:
        patcher.patch(owner, attr, traced(tracer, name, vars(owner)[attr], before, after))

    load_bundle = pipeline.load_bundle

    @functools.wraps(load_bundle)
    def load_bundle_traced(record, *args, **kwargs):
        # first call of every image on its worker thread: tag what follows
        tracer.set_image(str(record.get("image_id", "?")))
        with tracer.span("ingestion.load_bundle"):
            return load_bundle(record, *args, **kwargs)

    patcher.patch(pipeline, "load_bundle", load_bundle_traced)

    decode = rle.decode
    decode_traced = traced(tracer, "rle.decode", decode)
    decode_traced.cache_info = decode.cache_info
    decode_traced.cache_clear = decode.cache_clear
    patcher.patch(rle, "decode", decode_traced)

    patcher.patch(ingestion, "group_by_image",
                  traced_iter(tracer, "ingestion.group_by_image", ingestion.group_by_image))
    wrap(ingestion, "write_manifest", "ingestion.write_manifest")
    wrap(sharding, "plan_shards", "sharding.plan_shards")
    wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    wrap(pipeline, "claim_shard", "sharding.claim_shard")
    wrap(pipeline, "build_scene_tree", "scene_tree.build_scene_tree",
         before=lambda boxes, *a, **k: {"boxes": len(boxes)})
    wrap(scene_tree, "merge_duplicates", "scene_tree.merge_duplicates",
         before=lambda regions, *a, **k: {"regions_in": len(regions)},
         after=lambda merged: {"regions_out": len(merged)})
    wrap(scene_tree, "overlap_stats", "scene_tree.overlap_stats")
    wrap(pipeline, "assemble_context", "context.assemble_context",
         after=lambda ctx: {"sentences": len(ctx.sentences), "chars": ctx.total_chars})
    wrap(generation, "render", "prompts.render")
    wrap(generation, "parse_conversation", "prompts.parse_conversation",
         after=lambda pairs: {"empty": not pairs})
    for attr in ("generate_conversation", "generate_conversation_direct"):
        wrap(pipeline, attr, f"generation.{attr}",
             after=lambda conv: {"iterations": conv.provenance["iterations"]})
    wrap(generation, "verify_turn", "generation.verify_turn",
         after=lambda passed: {"passed": passed})
    wrap(generation, "quality_filter", "generation.quality_filter",
         after=lambda verdict: {"kept": verdict[0]})
    wrap(generation, "reduce_context", "generation.reduce_context",
         before=lambda S_i, *a, **k: {"sentences_in": len(S_i.sentences)},
         after=lambda S: {"sentences_out": len(S.sentences)})
    wrap(gateway.LlmGateway, "chat", "gateway.chat",
         before=lambda self, req, stage="default": {"stage": stage})
    wrap(pipeline, "write_conversation", "pipeline.write_conversation",
         before=lambda conv, out: {"image": conv.image.image_id})
    return patcher
