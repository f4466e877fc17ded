"""Per-layer metrics from the traced passes.

Each metric is named ``<module>.<metric>``. Counts and totals that grow
with the number of images are divided by the images of the traced passes
(the unit says so), because a run lasts a fixed time, not a fixed number
of images. A layer that did no work on a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import TYPE_CHECKING

from .spans import Span, self_times

if TYPE_CHECKING:
    from .harness import Pass

GATEWAY_STAGES = ("generate", "verify", "filter", "reduce", "qa_conversion", "tree_conversion")
IMAGE_STAGES = (
    "ingestion.load_bundle",
    "scene_tree.build_scene_tree",
    "context.assemble_context",
    "generation.generate_conversation",
    "generation.generate_conversation_direct",
)

# (name, unit, better); the per_layer list of BENCHMARK.json, in order
PER_LAYER = (
    ("ingestion.group_by_image_s", "s", "lower"),
    ("ingestion.load_bundle_ms.p50", "ms", "lower"),
    ("ingestion.load_bundle_ms.p99", "ms", "lower"),
    ("sharding.plan_shards_s", "s", "lower"),
    ("sharding.claim_ms", "ms", "lower"),
    ("sharding.claims_won", "count/batch", "higher"),
    ("sharding.claims_attempted", "count/batch", "lower"),
    ("rle.decode.calls", "count/image", "lower"),
    ("rle.decode.hit_frac", "frac", "higher"),
    ("rle.decode_ms.total", "ms/image", "lower"),
    ("scene_tree.build_ms.p50", "ms", "lower"),
    ("scene_tree.build_ms.p99", "ms", "lower"),
    ("scene_tree.overlap_calls_per_image", "count/image", "lower"),
    ("scene_tree.overlap_ms.total", "ms/image", "lower"),
    ("scene_tree.regions_per_box", "frac", "lower"),
    ("context.assemble_self_ms.p50", "ms", "lower"),
    ("context.assemble_self_ms.p99", "ms", "lower"),
    ("context.sentences_per_image", "count/image", "lower"),
    ("context.chars_per_image", "chars/image", "lower"),
    ("prompts.render_ms.p50", "ms", "lower"),
    ("prompts.parse_conversation_ms.p50", "ms", "lower"),
    ("prompts.parse_empty_frac", "frac", "lower"),
    ("generation.self_ms.p50", "ms", "lower"),
    ("generation.self_ms.p99", "ms", "lower"),
    ("generation.iterations_per_conversation", "count/conv", "lower"),
    ("generation.verify_pass_frac", "frac", "higher"),
    ("generation.filter_keep_frac", "frac", "higher"),
    ("generation.reduce_removed_per_call", "count/call", "higher"),
    *(
        (f"gateway.chat_ms.{stage}.{q}", "ms", "lower")
        for stage in GATEWAY_STAGES
        for q in ("p50", "p99")
    ),
    ("gateway.transport_ms.mean", "ms", "lower"),
    ("gateway.calls", "count/image", "lower"),
    ("gateway.retries", "count/image", "lower"),
    ("gateway.high_water_in_flight", "count", "higher"),
    *((f"gateway.prompt_tokens.{stage}", "tokens/image", "lower") for stage in GATEWAY_STAGES),
    ("scripted_server.service_ms.p50", "ms", "lower"),
    ("scripted_server.service_ms.p99", "ms", "lower"),
    ("scripted_server.requests", "count/image", "lower"),
    ("scripted_server.by_status.200", "count/image", "lower"),
    ("scripted_server.by_status.other", "count/image", "lower"),
    ("pipeline.write_ms.p50", "ms", "lower"),
    ("pipeline.write_ms.p99", "ms", "lower"),
    ("pipeline.bytes_per_conversation", "bytes", "lower"),
    ("pipeline.image_ms.p50", "ms", "lower"),
    ("pipeline.image_ms.p99", "ms", "lower"),
    ("tracing.overhead_s", "s", "lower"),
    ("tracing.overhead_frac", "frac", "lower"),
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100; 0.0 without samples."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _mean(values) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def _median(values) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def per_layer(spans: list[Span], server_spans: list[tuple[float, float, int]],
              traced: list["Pass"], plain: list["Pass"],
              decode_stats: tuple[int, int]) -> dict[str, tuple[float, str]]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    self_s = self_times(spans)
    images = sum(p.check.images for p in traced) or 1
    batches = len(traced) or 1

    def ms(name: str) -> list[float]:
        return [s.duration * 1000.0 for s in by_name[name]]

    def per_batch_sum(name: str) -> list[float]:
        sums: dict[int, float] = defaultdict(float)
        for s in by_name[name]:
            sums[s.batch] += s.duration
        return list(sums.values())

    def layer_self_ms(prefix: str) -> list[float]:
        """Self time of a layer's spans, summed per image."""
        per_image: dict[tuple, float] = defaultdict(float)
        for s in spans:
            if s.name.startswith(prefix) and s.image is not None:
                per_image[(s.batch, s.image)] += self_s[s.span_id] * 1000.0
        return list(per_image.values())

    # from load_bundle start to the end of generation, per image and thread
    image_window: dict[tuple, list[float]] = {}
    for name in IMAGE_STAGES:
        for s in by_name[name]:
            key = (s.batch, s.image, s.thread)
            lo, hi = image_window.get(key, (s.start, s.end))
            image_window[key] = [min(lo, s.start), max(hi, s.end)]
    image_ms = [(hi - lo) * 1000.0 for lo, hi in image_window.values()]

    claims = by_name["sharding.claim_shard"]
    merges = by_name["scene_tree.merge_duplicates"]
    contexts = [s for s in by_name["context.assemble_context"] if s.attr("error") is None]
    generated = [
        s
        for name in ("generation.generate_conversation", "generation.generate_conversation_direct")
        for s in by_name[name]
        if s.attr("error") is None
    ]
    reduces = [s for s in by_name["generation.reduce_context"] if s.attr("error") is None]
    chats = by_name["gateway.chat"]
    service_ms = [(end - start) * 1000.0 for start, end, _ in server_spans]
    hits, misses = decode_stats
    gateway_stages: dict[str, int] = defaultdict(int)
    for p in traced:
        for stage, bucket in p.gateway.get("stages", {}).items():
            gateway_stages[stage] += bucket["prompt_tokens"]
    requests = sum(p.server["requests"] for p in traced)
    ok = sum(p.server["ok"] for p in traced)
    conversations = sum(p.check.conversations for p in traced)
    plain_run = _median(p.run_s for p in plain)
    overhead = _median(p.run_s for p in traced) - plain_run

    values = {
        "ingestion.group_by_image_s": _median(per_batch_sum("ingestion.group_by_image")),
        "ingestion.load_bundle_ms.p50": percentile(ms("ingestion.load_bundle"), 50),
        "ingestion.load_bundle_ms.p99": percentile(ms("ingestion.load_bundle"), 99),
        "sharding.plan_shards_s": _median(s.duration for s in by_name["sharding.plan_shards"]),
        "sharding.claim_ms": _mean(ms("sharding.claim_shard")),
        "sharding.claims_won": sum(1 for s in claims if s.attr("error") is None) / batches,
        "sharding.claims_attempted": len(claims) / batches,
        "rle.decode.calls": len(by_name["rle.decode"]) / images,
        "rle.decode.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "rle.decode_ms.total": sum(ms("rle.decode")) / images,
        "scene_tree.build_ms.p50": percentile(ms("scene_tree.build_scene_tree"), 50),
        "scene_tree.build_ms.p99": percentile(ms("scene_tree.build_scene_tree"), 99),
        "scene_tree.overlap_calls_per_image": len(by_name["scene_tree.overlap_stats"]) / images,
        "scene_tree.overlap_ms.total": sum(ms("scene_tree.overlap_stats")) / images,
        "scene_tree.regions_per_box": (
            sum(s.attr("regions_out", 0) for s in merges)
            / max(1, sum(s.attr("regions_in", 0) for s in merges))
        ),
        "context.assemble_self_ms.p50": percentile(layer_self_ms("context."), 50),
        "context.assemble_self_ms.p99": percentile(layer_self_ms("context."), 99),
        "context.sentences_per_image": _mean(s.attr("sentences") for s in contexts),
        "context.chars_per_image": _mean(s.attr("chars") for s in contexts),
        "prompts.render_ms.p50": percentile(ms("prompts.render"), 50),
        "prompts.parse_conversation_ms.p50": percentile(ms("prompts.parse_conversation"), 50),
        "prompts.parse_empty_frac": _mean(
            s.attr("empty") for s in by_name["prompts.parse_conversation"]
        ),
        "generation.self_ms.p50": percentile(layer_self_ms("generation."), 50),
        "generation.self_ms.p99": percentile(layer_self_ms("generation."), 99),
        "generation.iterations_per_conversation": _mean(s.attr("iterations") for s in generated),
        "generation.verify_pass_frac": _mean(
            s.attr("passed") for s in by_name["generation.verify_turn"]
        ),
        "generation.filter_keep_frac": _mean(
            s.attr("kept") for s in by_name["generation.quality_filter"]
        ),
        "generation.reduce_removed_per_call": _mean(
            s.attr("sentences_in") - s.attr("sentences_out") for s in reduces
        ),
        "gateway.transport_ms.mean": _mean(s.duration * 1000.0 for s in chats) - _mean(service_ms),
        "gateway.calls": sum(p.gateway.get("requests", 0) for p in traced) / images,
        "gateway.retries": sum(p.gateway.get("retries", 0) for p in traced) / images,
        "gateway.high_water_in_flight": max(
            (p.gateway.get("high_water_in_flight", 0) for p in traced), default=0
        ),
        "scripted_server.service_ms.p50": percentile(service_ms, 50),
        "scripted_server.service_ms.p99": percentile(service_ms, 99),
        "scripted_server.requests": requests / images,
        "scripted_server.by_status.200": ok / images,
        "scripted_server.by_status.other": (requests - ok) / images,
        "pipeline.write_ms.p50": percentile(ms("pipeline.write_conversation"), 50),
        "pipeline.write_ms.p99": percentile(ms("pipeline.write_conversation"), 99),
        "pipeline.bytes_per_conversation": (
            sum(p.check.conversation_bytes for p in traced) / max(1, conversations)
        ),
        "pipeline.image_ms.p50": percentile(image_ms, 50),
        "pipeline.image_ms.p99": percentile(image_ms, 99),
        "tracing.overhead_s": overhead,
        "tracing.overhead_frac": overhead / plain_run if plain_run else 0.0,
    }
    for stage in GATEWAY_STAGES:
        stage_ms = [s.duration * 1000.0 for s in chats if s.attr("stage") == stage]
        values[f"gateway.chat_ms.{stage}.p50"] = percentile(stage_ms, 50)
        values[f"gateway.chat_ms.{stage}.p99"] = percentile(stage_ms, 99)
        values[f"gateway.prompt_tokens.{stage}"] = gateway_stages.get(stage, 0) / images
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
