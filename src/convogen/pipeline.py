"""Per-shard execution: ingest, tree build, context, generation, writing.

Workers are share-nothing; coordination happens through claim files and
append-only per-shard outputs. One pool per worker runs images of every
shard it claims, at most 2 x parallelism in flight, and claims the next
shard while the current one drains. The worker's main thread, the
committer, commits each shard's results in manifest order, so a full
scripted run with a fixed seed is byte-identical across machines and a
crashed shard resumes without duplicate conversation ids; it also refreshes
the claims the worker holds, at each commit and while it waits for one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import ExitStack, closing
from dataclasses import replace
from pathlib import Path
from typing import Optional, TextIO

from .config import PipelineConfig
from .context import assemble_context
from .errors import AlreadyClaimed, ConfigError, LlmUnavailable
from .gateway import LlmGateway, probe_endpoint
from .generation import Conversation, generate_conversation, generate_conversation_direct
from .ingestion import load_bundle, open_input, publish
from .prompts import PromptDistribution, load_prompt_set
from .scene_tree import build_scene_tree
from .scripted_server import ScriptedLlmServer, default_pipeline_rules, load_fixture_file
from .sharding import ShardClaim, claim_shard, load_shard

STAGES = ("ingest", "tree", "context", "generate", "write")
IMAGE_TOKEN = "<image>"
HEARTBEATS_PER_STALENESS = 10  # claim refreshes per claim_staleness_s


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


_Result = tuple[Optional[Conversation], Optional[str], dict, list]


def _line_id(line: bytes, path: Path, lineno: int):
    """The ``id`` of a whole output line; any other line is damage."""
    try:
        return json.loads(line)["id"]
    except (ValueError, KeyError, TypeError):
        raise ConfigError(
            f"damaged output file {path}, line {lineno}: not a JSON object with an id"
        ) from None


def _recover(conv_path: Path, tree_path: Path) -> set[str]:
    """Make a shard's outputs whole after a crash; returns the committed ids.

    Each file is read once. A crash mid-append leaves a final line without
    its newline: it is cut, so the next append starts a fresh line. A crash
    between a commit's two appends leaves a final tree line whose
    conversation was never appended, and only one: it is cut too. A crash
    leaves no other kind of line, so a whole line that is not a JSON object
    with an ``id`` raises ConfigError, before anything is cut.
    """
    done: set[str] = set()
    cuts: list[tuple[Path, int]] = []
    for path in (conv_path, tree_path):
        if not path.exists():
            continue
        with open(path, "rb") as fh:
            start = end = 0  # offsets of the last whole line
            last_id = None
            for lineno, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    break  # torn; only the final line can be
                start, end = end, end + len(line)
                last_id = _line_id(line, path, lineno)
                if path is conv_path:
                    done.add(last_id)
            if path is tree_path and last_id not in done:
                end = start
            if end < fh.tell():
                cuts.append((path, end))
    for path, end in cuts:
        os.truncate(path, end)
    return done


def _process_image(
    line: str,
    key: str,
    seed: int,
    conv_id: str,
    cfg: PipelineConfig,
    dist: PromptDistribution,
    gateway: LlmGateway,
    base_dir: Optional[Path] = None,
) -> _Result:
    """Run one image's manifest line through the enabled stages; it writes
    nothing.

    Returns (conversation, ascii tree, stage timings, rows): the rows, for
    ``errors.jsonl``, are its ingest warnings and its skip or failure, as
    (image id, stage, reason, error class or None); the conversation is None
    when it was skipped or failed. This is the image's one failure boundary:
    whatever a bad record or a bad model reply raises becomes a row naming
    the stage and the exception class, and costs this image only. A line
    that does not parse is such a row, under image id ``?``.
    """
    timings: dict[str, float] = {}
    image_id = "?"
    rows: list[tuple[str, str, str, Optional[str]]] = []
    stage, t0 = "ingest", time.monotonic()
    try:
        record = json.loads(line)
        image_id = str(record.get("image_id", "?"))
        warnings: list[dict] = []
        bundle = load_bundle(record, warnings.append, base_dir=base_dir)
        rows += [(image_id, "ingest", w.get("reason", "warning"), None) for w in warnings]
        timings["ingest"] = time.monotonic() - t0
        if not bundle.is_admissible:
            rows.append((image_id, "ingest", "bundle has no annotations", None))
            return None, None, timings, rows

        stage, t0 = "tree", time.monotonic()
        tree_text = ""
        if cfg.features.bbox_conversion and bundle.boxes:
            tree_text = build_scene_tree(list(bundle.boxes), bundle.image, cfg.scene)
        timings["tree"] = time.monotonic() - t0

        stage, t0 = "context", time.monotonic()
        ctx = assemble_context(bundle, tree_text, gateway, cfg.generation.max_retries)
        timings["context"] = time.monotonic() - t0
        if not ctx.sentences:
            rows.append((image_id, "context", "empty context", None))
            return None, None, timings, rows

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
        return conv, tree_text if tree_text else None, timings, rows
    except Exception as exc:
        timings[stage] = time.monotonic() - t0
        rows.append((image_id, stage, str(exc), type(exc).__name__))
        return None, None, timings, rows


class _OpenShard:
    """A claimed shard, held from its claim to its last commit or the run's end.

    ``todo`` are its images still to submit, in manifest order; a lost shard
    has none. ``held`` closes its files, then releases its claim; ``closer``
    closes it on any exit, and a second close does nothing.
    """

    def __init__(self, cfg: PipelineConfig, shard: dict, claim: ShardClaim, summary: dict,
                 closer: ExitStack):
        self.shard_id = shard["shard_id"]
        self.claim = claim
        self.summary = summary
        self.held = ExitStack()
        self.held.callback(claim.release)  # a superseded claim is left alone
        closer.callback(self.held.close)
        out_dir = Path(cfg.output_dir)
        self.errors_path = out_dir / "errors.jsonl"
        conv_path = out_dir / f"conversations_shard_{self.shard_id:05d}.jsonl"
        tree_path = out_dir / f"trees_shard_{self.shard_id:05d}.jsonl"
        done = _recover(conv_path, tree_path)
        self.manifest = self.held.enter_context(open_input(shard["manifest"], "manifest"))
        self.conv_out = self.held.enter_context(open(conv_path, "a", encoding="utf-8"))
        self.tree_out = self.held.enter_context(open(tree_path, "a", encoding="utf-8"))
        self.base_dir = Path(shard["manifest"]).parent
        self.todo: deque[tuple[int, str, int, str]] = deque()
        for offset, key in zip(shard["offsets"], shard["keys"]):
            seed = image_seed(cfg.rng_seed, key)
            conv_id = f"{key}-{seed}"
            if conv_id in done:
                summary["resumed"] += 1
            else:
                self.todo.append((offset, key, seed, conv_id))

    def commit(self, result: _Result) -> bool:
        """While the claim is the shard's newest generation, count one image,
        append its ``errors.jsonl`` rows and commit its conversation, if it
        has one: the tree line, then the conversation line, the commit
        record ``_recover`` reads. Once it is not, the shard is lost, this
        writes and counts nothing and returns False."""
        conv, tree_text, timings, rows = result
        summary, stage_s = self.summary, self.summary["stage_s"]
        if not self.claim.is_current():
            self.todo.clear()
            summary["lost_shards"].append(self.shard_id)
            return False
        summary["images"] += 1
        for stage, seconds in timings.items():
            stage_s[stage] += seconds
        if rows:
            summary["errors"] += len(rows)
            with open(self.errors_path, "a", encoding="utf-8") as fh:
                for image_id, stage, reason, error in rows:
                    row = {"image_id": image_id, "shard": self.shard_id,
                           "worker": self.claim.worker_id, "stage": stage}
                    if error is not None:
                        row["error"] = error
                    row["reason"] = reason
                    fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        if conv is None:
            return True
        t0 = time.monotonic()
        if tree_text is not None:
            line = json.dumps({"id": conv.provenance["id"], "tree": tree_text}, ensure_ascii=False)
            self.tree_out.write(line + "\n")
            self.tree_out.flush()
        write_conversation(conv, self.conv_out)
        stage_s["write"] += time.monotonic() - t0
        summary["conversations"] += 1
        summary["turns"] += len(conv.turns)
        return True


def run_pipeline(
    cfg: PipelineConfig,
    worker_id: str = "worker-0",
    shard_filter: Optional[set[int]] = None,
) -> dict:
    """Claim and process every available shard; returns summary metrics.

    One pool runs the images of every claimed shard. A failing image costs
    only itself (see ``_process_image``); any exit releases every claim, and
    so does a refresh that raises.
    """
    dist = load_prompt_set(cfg.prompts_dir, cfg.prompts_set)
    shard_dir = cfg.resolved_shard_dir()
    shard_paths = sorted(shard_dir.glob("shard_*.json"))
    if not shard_paths:
        raise ConfigError(f"no shard files under {shard_dir}")

    # closes the shards, cancels the images in flight, closes the gateway, stops the server
    with ExitStack() as stack:
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
            raise LlmUnavailable(f"nothing answers at {cfg.gateway.endpoint_url}")
        gateway = stack.enter_context(closing(LlmGateway(gateway_cfg)))
        threads = cfg.parallelism
        pool = ThreadPoolExecutor(max_workers=threads)
        stack.callback(pool.shutdown, cancel_futures=True)
        # each image submitted and not yet committed, in submission order
        window: deque[tuple[_OpenShard, Future]] = deque()
        limit = 2 * threads
        open_shards: list[_OpenShard] = []  # claimed and not yet closed

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

        refresh_s = cfg.claim_staleness_s / HEARTBEATS_PER_STALENESS

        def keep_claims_alive() -> float:
            """Refresh each held claim that is due; returns the seconds to the next."""
            now, due = time.time(), refresh_s
            for shard in open_shards:
                age = now - shard.claim.heartbeat
                if age >= refresh_s:
                    shard.claim.refresh()
                else:
                    due = min(due, refresh_s - age)
            return due

        def commit_until(in_flight: int) -> None:
            """Commit down to ``in_flight`` images in the window, then close what is done."""
            while len(window) > in_flight:
                # commit strictly in submission order for byte-stable outputs
                shard, future = window[0]
                while not wait([future], timeout=keep_claims_alive()).done:
                    pass
                window.popleft()
                # a shard's images are contiguous in the window
                if not shard.commit(future.result()):  # lost: drop the rest of them
                    while window and window[0][0] is shard:
                        window.popleft()[1].cancel()
            busy = {shard for shard, _ in window}
            for shard in [s for s in open_shards if not (s.todo or s in busy)]:
                open_shards.remove(shard)
                shard.held.close()

        for shard_path in shard_paths:
            shard_file = load_shard(shard_path)
            shard_id = shard_file["shard_id"]
            if shard_filter is not None and shard_id not in shard_filter:
                continue
            try:
                claim = claim_shard(shard_path, worker_id, cfg.claim_staleness_s, shard_id)
            except AlreadyClaimed:
                summary["skipped_shards"] += 1
                continue
            summary["shards"].append(shard_id)
            shard = _OpenShard(cfg, shard_file, claim, summary, stack)
            open_shards.append(shard)
            while True:
                commit_until(limit - 1)  # so the next shard is claimed while this one drains
                if not shard.todo:
                    break
                offset, *image = shard.todo.popleft()
                shard.manifest.seek(offset)  # each record is read when it is submitted
                window.append((shard, pool.submit(
                    _process_image, shard.manifest.readline(), *image, cfg, dist, gateway,
                    shard.base_dir,
                )))
        commit_until(0)
        wall = time.monotonic() - started
        summary["wall_s"] = round(wall, 3)
        summary["conversations_per_hour"] = (
            round(summary["conversations"] / wall * 3600.0, 1) if wall > 0 else 0.0
        )
        summary["gateway"] = gateway.metrics_snapshot()
        publish(out_dir / f"summary_{worker_id}.json", [json.dumps(summary, indent=2)])
        return summary
