"""Per-shard execution: ingest, tree build, context, generation, writing.

Workers are share-nothing; coordination happens through claim files and
append-only per-shard outputs. Images in a shard run concurrently but
results are committed in manifest order, so a full scripted run with a
fixed seed is byte-identical across machines, and a crashed shard resumes
without duplicate conversation ids.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import replace
from pathlib import Path
from typing import Optional, TextIO

from .config import PipelineConfig
from .context import assemble_context, boxes_to_plain_sentences
from .errors import AlreadyClaimed, ConfigError, LlmUnavailable
from .gateway import LlmGateway, probe_endpoint
from .generation import Conversation, generate_conversation, generate_conversation_direct
from .ingestion import load_bundle
from .prompts import PromptDistribution, load_prompt_set
from .scene_tree import build_scene_tree
from .scripted_server import ScriptedLlmServer, default_pipeline_rules, load_fixture_file
from .sharding import HeartbeatThread, ShardClaim, claim_shard, load_shard

STAGES = ("ingest", "tree", "context", "generate", "write")
IMAGE_TOKEN = "<image>"


def image_seed(rng_seed: int, link_key_str: str) -> int:
    """Per-image seed, stable across machines and worker scheduling."""
    digest = hashlib.sha256(f"{rng_seed}:{link_key_str}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def conversation_record(conv: Conversation) -> dict:
    """Output schema: LLaVA-style conversations plus provenance."""
    prov = dict(conv.provenance)
    conv_id = prov.pop("id")
    entries = []
    for i, turn in enumerate(conv.turns):
        human = f"{IMAGE_TOKEN}\n{turn.human}" if i == 0 else turn.human
        entries.append({"from": "human", "value": human})
        entries.append({"from": "gpt", "value": turn.assistant})
    return {
        "id": conv_id,
        "image": conv.image.uri,
        "conversations": entries,
        "provenance": prov,
    }


def write_conversation(conv: Conversation, out: TextIO) -> None:
    """Append one JSON line and flush, so partial shards survive a crash."""
    out.write(json.dumps(conversation_record(conv), ensure_ascii=False) + "\n")
    out.flush()


def validate_conversation_record(record: dict) -> list[str]:
    """Schema lint for one output record; empty list means valid."""
    problems = []
    for key in ("id", "image", "conversations", "provenance"):
        if key not in record:
            problems.append(f"missing key {key!r}")
    entries = record.get("conversations", [])
    if not entries:
        problems.append("no conversation entries")
    if len(entries) % 2 != 0:
        problems.append("conversations must alternate human/gpt pairs")
    token_count = 0
    for i, entry in enumerate(entries):
        expected = "human" if i % 2 == 0 else "gpt"
        if entry.get("from") != expected:
            problems.append(f"entry {i} from={entry.get('from')!r}, expected {expected!r}")
        value = entry.get("value", "")
        if not value:
            problems.append(f"entry {i} has empty value")
        token_count += value.count(IMAGE_TOKEN)
    if token_count != 1:
        problems.append(f"{IMAGE_TOKEN} appears {token_count} times, expected 1")
    elif not entries[0].get("value", "").startswith(IMAGE_TOKEN):
        problems.append(f"{IMAGE_TOKEN} must open the first human turn")
    return problems


class _ErrorLog:
    """Append-only JSONL sink of one shard's image rows, shared by the
    worker's threads. A failure row names the exception class under
    ``error``; skip and ingest-warning rows have no ``error``."""

    def __init__(self, path: Path, shard: int, worker: str):
        self.path = path
        self.shard = shard
        self.worker = worker
        self._lock = threading.Lock()
        self.count = 0

    def write(self, image_id: str, stage: str, reason: str, error: Optional[str] = None) -> None:
        row = {"image_id": image_id, "shard": self.shard, "worker": self.worker, "stage": stage}
        if error is not None:
            row["error"] = error
        row["reason"] = reason
        with self._lock:
            self.count += 1
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _recover(conv_path: Path, tree_path: Path) -> set[str]:
    """Make a shard's outputs whole after a crash; returns the committed ids.

    Each file is read once. A crash mid-append leaves a final line without
    its newline: it is cut, so the next append starts a fresh line. A crash
    between a commit's two appends leaves a final tree line whose
    conversation was never appended, and only one: it is cut too.
    """
    done: set[str] = set()
    for path in (conv_path, tree_path):
        if not path.exists():
            continue
        with open(path, "rb+") as fh:
            start = end = 0  # offsets of the last whole line
            last = b""
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn; only the final line can be
                start, end, last = end, end + len(line), line
                if path is conv_path:
                    try:
                        done.add(json.loads(line)["id"])
                    except (ValueError, KeyError):
                        continue
            if path is tree_path and last and json.loads(last)["id"] not in done:
                end = start
            if end < fh.tell():
                fh.truncate(end)
    return done


def _process_image(
    record: dict,
    key: str,
    seed: int,
    conv_id: str,
    cfg: PipelineConfig,
    dist: PromptDistribution,
    gateway: LlmGateway,
    errors: _ErrorLog,
    base_dir: Optional[Path] = None,
) -> tuple[Optional[Conversation], Optional[str], dict]:
    """Run one image through the enabled stages.

    Returns (conversation, ascii tree, stage timings); conversation is None
    when the image was skipped or failed, with its row already logged. This
    is the image's one failure boundary: whatever a bad record or a bad
    model reply raises becomes a row naming the stage and the exception
    class, and costs this image only.
    """
    timings: dict[str, float] = {}
    image_id = str(record.get("image_id", "?"))
    stage, t0 = "ingest", time.monotonic()
    try:
        warnings: list[dict] = []
        bundle = load_bundle(record, warnings.append, base_dir=base_dir)
        for warning in warnings:
            errors.write(image_id, "ingest", warning.get("reason", "warning"))
        timings["ingest"] = time.monotonic() - t0
        if not bundle.is_admissible:
            errors.write(image_id, "ingest", "bundle has no annotations")
            return None, None, timings

        stage, t0 = "tree", time.monotonic()
        tree_text = ""
        if cfg.features.bbox_conversion and bundle.boxes:
            _, tree_text = build_scene_tree(list(bundle.boxes), bundle.image, cfg.scene)
        timings["tree"] = time.monotonic() - t0

        stage, t0 = "context", time.monotonic()
        plain = None
        if not cfg.features.bbox_conversion and bundle.boxes:
            plain = boxes_to_plain_sentences(bundle.boxes)
        ctx = assemble_context(
            bundle,
            tree_text,
            gateway,
            plain_box_sentences=plain,
            max_attempts=cfg.generation.max_retries,
        )
        timings["context"] = time.monotonic() - t0
        if not ctx.sentences:
            errors.write(image_id, "context", "empty context")
            return None, None, timings

        stage, t0 = "generate", time.monotonic()
        filtering = cfg.features.filtering
        if cfg.features.reduction:
            conv = generate_conversation(
                ctx, dist, cfg.generation, gateway, seed,
                reduce_mode=cfg.reduce_mode, filtering=filtering,
            )
        else:
            conv = generate_conversation_direct(
                ctx, dist, cfg.generation, gateway, seed, filtering=filtering
            )
        timings["generate"] = time.monotonic() - t0
        conv.provenance["id"] = conv_id
        conv.provenance["link_key"] = key
        conv.provenance["image_ref"] = {
            "dataset": bundle.image.dataset_id,
            "image_id": bundle.image.image_id,
            "width": bundle.image.width,
            "height": bundle.image.height,
        }
        return conv, tree_text if tree_text else None, timings
    except Exception as exc:
        timings[stage] = time.monotonic() - t0
        errors.write(image_id, stage, str(exc), error=type(exc).__name__)
        return None, None, timings


def process_shard(
    cfg: PipelineConfig,
    shard_path: Path,
    gateway: LlmGateway,
    dist: PromptDistribution,
    claim: ShardClaim,
    summary: dict,
) -> None:
    """Process one claimed shard, adding its counts into ``summary``.

    Every commit first checks that ``claim`` is still the shard's newest
    generation; once another worker has taken the shard over, nothing more
    is written and the shard goes on ``lost_shards``. A commit appends the
    image's tree line and then its conversation line, so the conversation
    line is the commit record: resume skips images with a conversation and
    cuts a final tree line that has none.
    """
    shard = load_shard(shard_path)
    shard_id = shard["shard_id"]
    summary["shards"].append(shard_id)
    out_dir = Path(cfg.output_dir)
    conv_path = out_dir / f"conversations_shard_{shard_id:05d}.jsonl"
    tree_path = out_dir / f"trees_shard_{shard_id:05d}.jsonl"
    errors = _ErrorLog(out_dir / "errors.jsonl", shard_id, claim.worker_id)
    done = _recover(conv_path, tree_path)

    manifest_dir = Path(shard["manifest"]).resolve().parent
    pending: list[tuple[dict, str, int, str]] = []
    with open(shard["manifest"], encoding="utf-8") as fh:
        for offset, key in zip(shard["offsets"], shard["keys"]):
            seed = image_seed(cfg.rng_seed, key)
            conv_id = f"{key}-{seed}"
            if conv_id in done:
                summary["resumed"] += 1
                continue
            fh.seek(offset)
            pending.append((json.loads(fh.readline()), key, seed, conv_id))

    stage_s = summary["stage_s"]
    with open(conv_path, "a", encoding="utf-8") as conv_out, open(
        tree_path, "a", encoding="utf-8"
    ) as tree_out:
        with ThreadPoolExecutor(max_workers=max(1, cfg.parallelism)) as pool:
            futures = [
                pool.submit(_process_image, *image, cfg, dist, gateway, errors, manifest_dir)
                for image in pending
            ]
            # commit strictly in manifest order for byte-stable outputs
            for future in futures:
                conv, tree_text, timings = future.result()
                summary["images"] += 1
                for stage, seconds in timings.items():
                    stage_s[stage] += seconds
                if conv is None:
                    continue
                if not claim.is_current():
                    summary["lost_shards"].append(shard_id)
                    break
                t0 = time.monotonic()
                if tree_text is not None:
                    tree_out.write(
                        json.dumps(
                            {"id": conv.provenance["id"], "tree": tree_text},
                            ensure_ascii=False,
                        )
                        + "\n"
                    )
                    tree_out.flush()
                write_conversation(conv, conv_out)
                stage_s["write"] += time.monotonic() - t0
                summary["conversations"] += 1
                summary["turns"] += len(conv.turns)
            for future in futures:
                future.cancel()
    summary["errors"] += errors.count


def run_pipeline(
    cfg: PipelineConfig,
    worker_id: str = "worker-0",
    shard_filter: Optional[set[int]] = None,
) -> dict:
    """Claim and process every available shard; returns summary metrics.

    A failing image costs only itself (see ``_process_image``); whatever
    else ends a shard, its claim is released.
    """
    dist = load_prompt_set(cfg.prompts_dir, cfg.prompts_set)
    shard_dir = cfg.resolved_shard_dir()
    shard_paths = sorted(shard_dir.glob("shard_*.json"))
    if not shard_paths:
        raise ConfigError(f"no shard files under {shard_dir}")

    with ExitStack() as stack:  # closes the gateway, then stops the server
        gateway_cfg = cfg.gateway
        if cfg.gateway.mode == "scripted":
            rules = (
                load_fixture_file(cfg.scripted_fixtures)
                if cfg.scripted_fixtures
                else default_pipeline_rules()
            )
            server = stack.enter_context(
                ScriptedLlmServer(
                    fixtures=rules,
                    latency_base_ms=cfg.scripted_latency_base_ms,
                    latency_per_char_ms=cfg.scripted_latency_per_char_ms,
                )
            )
            gateway_cfg = replace(cfg.gateway, endpoint_url=server.url)
        elif not probe_endpoint(cfg.gateway.endpoint_url):
            raise LlmUnavailable(f"endpoint unreachable: {cfg.gateway.endpoint_url}")
        gateway = stack.enter_context(closing(LlmGateway(gateway_cfg)))

        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        summary = {
            "worker_id": worker_id,
            "shards": [],
            "images": 0,
            "conversations": 0,
            "turns": 0,
            "resumed": 0,
            "errors": 0,
            "skipped_shards": 0,
            "lost_shards": [],
            "stage_s": {stage: 0.0 for stage in STAGES},
        }
        for shard_path in shard_paths:
            shard_id = load_shard(shard_path)["shard_id"]
            if shard_filter is not None and shard_id not in shard_filter:
                continue
            try:
                claim = claim_shard(shard_path, worker_id, cfg.claim_staleness_s)
            except AlreadyClaimed:
                summary["skipped_shards"] += 1
                continue
            heartbeat = HeartbeatThread(claim, cfg.heartbeat_s)
            heartbeat.start()
            try:
                process_shard(cfg, shard_path, gateway, dist, claim, summary)
            finally:
                heartbeat.stop()
                claim.release()  # a superseded claim is left alone
        wall = time.monotonic() - started
        summary["wall_s"] = round(wall, 3)
        summary["conversations_per_hour"] = (
            round(summary["conversations"] / wall * 3600.0, 1) if wall > 0 else 0.0
        )
        summary["gateway"] = gateway.metrics_snapshot()
        (out_dir / f"summary_{worker_id}.json").write_text(
            json.dumps(summary, indent=2), encoding="utf-8"
        )
        return summary
