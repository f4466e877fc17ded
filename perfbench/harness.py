"""One benchmark run: seeded batches through ingest, shard planning and
``run_pipeline``, with output checks and end-to-end metrics.

Load shape: a closed loop in one process. Each batch is set up
(``group_by_image`` -> ``write_manifest`` -> ``plan_shards``) and then run
(``run_pipeline``) against the out-of-process backend in ``live`` gateway
mode, with at most ``nproc`` (and never more than 2) pool threads and
connections. A new batch starts until ``seconds`` have passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from convogen import ingestion, pipeline, rle, sharding
from convogen.config import FeatureFlags, PipelineConfig
from convogen.gateway import GatewayConfig

from . import layers
from .backend import Backend
from .spans import Tracer, instrument
from .workloads import Workload, write_batch

PARALLELISM = max(1, min(2, os.cpu_count() or 1))
SETUP_REPEATS = 5  # set-ups per untraced batch; setup_s is their median
# peak_rss_mb is read after this many batches, a fixed amount of work, so
# it does not depend on how many batches fit in the run
PEAK_RSS_BATCHES = 2
# the program's own sampling seed is fixed; the benchmark seed varies the
# inputs, so template draws do not add seed-to-seed spread
PROGRAM_SEED = 0

# (name, unit, better); the bounded metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("images_per_s", "1/s", "higher"),
    ("conversations_per_hour", "1/h", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("llm_calls_per_conversation", "count", "lower"),
    ("prompt_tokens_per_conversation", "tokens", "lower"),
    ("completion_tokens_per_conversation", "tokens", "lower"),
    ("turns_per_conversation", "count", "higher"),
)
# printed with the others but not bounded. The fail shares are 0 on some
# workloads, so no share of a median can bound them. CPU time per image
# follows the host's CPU speed: on a shared 2-vCPU VM one pure-Python loop
# took 149-224 ms per call over 40 s, and cpu_ms_per_image spread 12-18%
# (quartiles over median) across seeds, over a third of the 0.25 cap.
UNBOUNDED = (
    ("cpu_ms_per_image", "ms"),
    ("image_fail_frac", "frac"),
    ("llm_call_fail_frac", "frac"),
)


@dataclass
class Check:
    images: int = 0
    failed: int = 0
    conversations: int = 0
    turns: int = 0
    conversation_bytes: int = 0
    conversations_sha256: str = ""
    trees_sha256: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    batch: int
    traced: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    gateway: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    check: Check = field(default_factory=Check)


def pipeline_config(workload: Workload, manifest: Path, shard_dir: Path, out_dir: Path,
                    prompts_dir: Path, url: str) -> PipelineConfig:
    return PipelineConfig(
        manifest_path=str(manifest),
        output_dir=str(out_dir),
        prompts_dir=str(prompts_dir),
        prompts_set=workload.prompts_set,
        shard_dir=str(shard_dir),
        rng_seed=PROGRAM_SEED,
        parallelism=PARALLELISM,
        reduce_mode="llm",
        scripted_latency_base_ms=workload.latency_base_ms,
        scripted_latency_per_char_ms=workload.latency_per_char_ms,
        gateway=GatewayConfig(mode="live", endpoint_url=url, max_in_flight=PARALLELISM),
        features=FeatureFlags(
            filtering=workload.filtering,
            bbox_conversion=workload.bbox_conversion,
            reduction=workload.reduction,
        ),
    )


def set_up(manifests: list[Path], directory: Path, shards: int) -> tuple[Path, Path]:
    """Ingest and merge the dataset manifests, then plan the shards."""
    merged = directory / "manifest.jsonl"
    shard_dir = directory / "shards"
    bundles = itertools.chain.from_iterable(ingestion.load_manifest(p) for p in manifests)
    ingestion.write_manifest(ingestion.group_by_image(bundles), merged)
    sharding.plan_shards(merged, shards, shard_dir)
    return merged, shard_dir


def _digest(paths: list[Path]) -> tuple[str, int]:
    sha = hashlib.sha256()
    size = 0
    for path in paths:
        data = path.read_bytes()
        sha.update(data)
        size += len(data)
    return sha.hexdigest(), size


def check_outputs(manifest: Path, out_dir: Path, summary: dict) -> Check:
    """Every record is valid with a unique id, and every manifest image has
    a record or an ``errors.jsonl`` row."""
    with open(manifest, encoding="utf-8") as fh:
        image_ids = [str(json.loads(line)["image_id"]) for line in fh if line.strip()]
    check = Check(images=len(image_ids))
    conv_paths = sorted(out_dir.glob("conversations_shard_*.jsonl"))
    check.conversations_sha256, check.conversation_bytes = _digest(conv_paths)
    check.trees_sha256, _ = _digest(sorted(out_dir.glob("trees_shard_*.jsonl")))
    seen: set[str] = set()
    with_record: set[str] = set()
    bad: set[str] = set()
    for path in conv_paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            image_id = str(record.get("provenance", {}).get("image_ref", {}).get("image_id"))
            problems = pipeline.validate_conversation_record(record)
            if record.get("id") in seen:
                problems.append("duplicate id")
            seen.add(record.get("id"))
            if problems:
                bad.add(image_id)
                check.problems += [f"{record.get('id')}: {p}" for p in problems]
            with_record.add(image_id)
            check.conversations += 1
            check.turns += len(record.get("conversations", [])) // 2
    errors_path = out_dir / "errors.jsonl"
    with_error = set()
    if errors_path.exists():
        with open(errors_path, encoding="utf-8") as fh:
            with_error = {str(json.loads(line)["image_id"]) for line in fh if line.strip()}
    missing = [i for i in image_ids if i not in with_record and i not in with_error]
    check.problems += [f"image {i}: no record and no error row" for i in missing]
    stray = with_record - set(image_ids)
    check.problems += [f"record for unknown image {i}" for i in sorted(stray)]
    if summary.get("images") != len(image_ids):
        check.problems.append(
            f"pipeline processed {summary.get('images')} of {len(image_ids)} images"
        )
    check.failed = len(set(missing) | (bad & set(image_ids)))
    if check.problems and not check.failed:
        check.failed = len(image_ids)
    return check


def run_pass(workload: Workload, batch: int, manifests: list[Path], directory: Path,
             backend: Backend, prompts_dir: Path, traced: bool) -> Pass:
    """Set up and run one batch in ``directory``, then check its outputs."""
    result = Pass(batch=batch, traced=traced)
    setup_times = []
    for repeat in range(1 if traced else SETUP_REPEATS):
        setup_dir = directory / f"setup_{repeat}"
        setup_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        merged, shard_dir = set_up(manifests, setup_dir, workload.shards)
        setup_times.append(time.perf_counter() - t0)
    result.setup_s = statistics.median(setup_times)
    out_dir = directory / "out"
    cfg = pipeline_config(workload, merged, shard_dir, out_dir, prompts_dir, backend.url)
    server_before = backend.stats()
    cpu0, t0 = time.process_time(), time.perf_counter()
    summary = pipeline.run_pipeline(cfg, worker_id="bench")
    result.run_s = time.perf_counter() - t0
    result.cpu_s = time.process_time() - cpu0
    server_after = backend.stats()
    result.gateway = summary["gateway"]
    result.server = {
        "requests": server_after["requests"] - server_before["requests"],
        "ok": server_after["by_status"].get("200", 0) - server_before["by_status"].get("200", 0),
    }
    result.check = check_outputs(merged, out_dir, summary)
    return result


def end_to_end(passes: list[Pass], peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric (the bounded ones and the fail shares)."""
    images = sum(p.check.images for p in passes)
    convs = sum(p.check.conversations for p in passes)
    run_s = sum(p.run_s for p in passes)
    stages = [s for p in passes for s in p.gateway.get("stages", {}).values()]
    requests = sum(p.server["requests"] for p in passes)
    per_conv = convs or 1
    values = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "run_s": statistics.median(p.run_s for p in passes),
        "images_per_s": images / run_s,
        "conversations_per_hour": convs / run_s * 3600.0,
        "peak_rss_mb": peak_rss_mb,
        "llm_calls_per_conversation": sum(p.gateway.get("requests", 0) for p in passes) / per_conv,
        "prompt_tokens_per_conversation": sum(s["prompt_tokens"] for s in stages) / per_conv,
        "completion_tokens_per_conversation": sum(s["completion_tokens"] for s in stages) / per_conv,
        "turns_per_conversation": sum(p.check.turns for p in passes) / per_conv,
        "cpu_ms_per_image": sum(p.cpu_s for p in passes) / images * 1000.0,
        "image_fail_frac": (images - convs) / images,
        "llm_call_fail_frac": (requests - sum(p.server["ok"] for p in passes)) / (requests or 1),
    }
    units = {name: unit for name, unit, _ in END_TO_END} | dict(UNBOUNDED)
    return {name: (value, units[name]) for name, value in values.items()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    passes: list[Pass]
    end_to_end: dict[str, tuple[float, str]]  # of the untraced passes
    per_layer: dict[str, tuple[float, str]]  # of the traced passes, when traced
    problems: list[str]
    tracer: Optional[Tracer] = None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
            work: Path) -> RunResult:
    """Run batches until ``seconds`` have passed.

    Untraced, every batch is one pass. Traced, every batch runs untraced
    and traced on the same inputs, in alternating order, so the tracing
    overhead is measured on the same work; the ``rle.decode`` cache is
    cleared before each traced pass so both start from the same state.
    """
    prompts_dir = root / "prompts"
    passes: list[Pass] = []
    problems: list[str] = []
    tracer = Tracer() if trace else None
    server_spans: list[tuple[float, float, int]] = []
    decode_stats = [0, 0]
    rss = None
    with Backend(workload.latency_base_ms, workload.latency_per_char_ms, trace) as backend:
        started = time.monotonic()
        for batch in itertools.count():
            if batch and time.monotonic() - started >= seconds:
                break
            batch_dir = work / f"batch_{batch:04d}"
            manifests = write_batch(workload, seed, batch, batch_dir / "inputs")
            if not trace:
                order = [False]
            else:
                order = [False, True] if batch % 2 == 0 else [True, False]
            done: list[Pass] = []
            try:
                for traced_pass in order:
                    pass_dir = batch_dir / ("traced" if traced_pass else "plain")
                    if not traced_pass:
                        done.append(run_pass(workload, batch, manifests, pass_dir, backend,
                                             prompts_dir, False))
                        continue
                    rle.decode.cache_clear()
                    info0 = rle.decode.cache_info()
                    tracer.batch = batch
                    backend.drain()
                    with instrument(tracer):
                        done.append(run_pass(workload, batch, manifests, pass_dir, backend,
                                             prompts_dir, True))
                    info1 = rle.decode.cache_info()
                    decode_stats[0] += info1.hits - info0.hits
                    decode_stats[1] += info1.misses - info0.misses
                    server_spans += backend.drain()
            except Exception:  # a crashed pass fails the run; report it and stop
                traceback.print_exc(file=sys.stderr)
                problems.append(f"batch {batch}: pipeline raised, see stderr")
                images = workload.batch_images
                passes.append(Pass(batch=batch, traced=False,
                                   check=Check(images=images, failed=images)))
                break
            shas = {p.check.conversations_sha256 for p in done}
            if len(shas) > 1:
                problems.append(f"batch {batch}: traced and untraced outputs differ")
            for p in done:
                problems += [f"batch {batch}: {msg}" for msg in p.check.problems]
            passes += done
            if batch + 1 == PEAK_RSS_BATCHES:
                rss = peak_rss_mb()
            shutil.rmtree(batch_dir / "plain", ignore_errors=True)
            shutil.rmtree(batch_dir / "traced", ignore_errors=True)
    plain = [p for p in passes if not p.traced and p.run_s > 0]
    traced = [p for p in passes if p.traced]
    if not plain or (trace and not traced):
        return RunResult(passes, {}, {}, problems or ["no batch completed"], tracer)
    result = RunResult(passes, end_to_end(plain, rss or peak_rss_mb()), {}, problems, tracer)
    if trace:
        result.per_layer = layers.per_layer(tracer.spans, server_spans, traced, plain,
                                            tuple(decode_stats))
    return result


def equivalence_check(workload: Workload, seed: int, root: Path, work: Path,
                      images: int) -> list[str]:
    """Run one small batch through the out-of-process backend and through an
    in-process ``gateway.mode="scripted"`` server with the same config;
    returns the differences in conversation and tree bytes."""
    manifests = write_batch(workload, seed, 0, work / "inputs", images=images)
    merged, shard_dir = set_up(manifests, work, workload.shards)
    checks = {}
    with Backend(workload.latency_base_ms, workload.latency_per_char_ms) as backend:
        live = pipeline_config(workload, merged, shard_dir, work / "live", root / "prompts",
                               backend.url)
        checks["live"] = check_outputs(merged, work / "live", pipeline.run_pipeline(live))
    scripted = replace(live, output_dir=str(work / "scripted"),
                       gateway=replace(live.gateway, mode="scripted"))
    checks["scripted"] = check_outputs(merged, work / "scripted", pipeline.run_pipeline(scripted))
    out = [f"{mode}: {p}" for mode, c in checks.items() for p in c.problems]
    if checks["live"].conversations == 0:
        out.append("no conversations to compare")
    for attr in ("conversations_sha256", "trees_sha256"):
        if getattr(checks["live"], attr) != getattr(checks["scripted"], attr):
            out.append(f"{attr} differs between live and scripted runs")
    return out
