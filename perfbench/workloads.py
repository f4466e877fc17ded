"""Seeded inputs and pipeline settings for the benchmark workloads.

A workload fixes the *shape* of each image from its slot in a batch
(caption, QA and box counts, image size), and every batch holds every shape
of the workload once, so runs with different seeds, or a different number
of batches, do the same mix of work and their figures can be compared. The
seed draws everything else (text, labels, geometry, masks, depth) through
``convogen.synth.synthetic_record``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from convogen import rle
from convogen.metadata import record_line
from convogen.synth import synthetic_record

DIMS = ((640, 480), (800, 600), (512, 512))  # the sizes synthetic_record draws from
DENSE_MASK_SHARE = 0.8
FULL_MASK_SHARE = 0.5  # synthetic_record's own default

# one batch of each workload: (captions, qas) for text-staged, (size, boxes)
# for dense-masks, (captions, qas, boxes) for full-modeled. The full-modeled
# box counts average 3, as synthetic_record's randint(0, 6) does.
TEXT_SHAPES = tuple((1 + i % 3, (i // 3) % 4) for i in range(24))
DENSE_SHAPES = tuple((DIMS[i % 3], (10, 13, 16, 19, 21, 24, 27, 30)[i % 8]) for i in range(24))
FULL_SHAPES = tuple(
    (1 + i % 3, (i // 3) % 4, boxes)
    for i, boxes in enumerate((0, 3, 6, 1, 4, 2, 5, 3, 0, 6, 2, 4))
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_image: Callable[[random.Random, int, int], dict[str, dict]]
    batch_images: int  # one of each shape
    shards: int
    prompts_set: str
    filtering: bool
    bbox_conversion: bool
    reduction: bool
    latency_base_ms: float = 0.0
    latency_per_char_ms: float = 0.0


def _draw(rng: random.Random, index: int, dataset: str, *, max_boxes: int, max_qas: int,
          dims=None, captions=None, boxes=None, qas=None) -> dict:
    """Draw synthetic records until one has at least the wanted counts (and
    the wanted size), then cut its lists down to exactly those counts."""
    while True:
        rec = synthetic_record(rng, index, dataset=dataset, max_captions=3,
                               max_boxes=max_boxes, max_qas=max_qas, with_masks=False)
        if dims is not None and (rec["width"], rec["height"]) != dims:
            continue
        wanted = (("captions", captions), ("boxes", boxes), ("qas", qas))
        if all(n is None or len(rec[key]) >= n for key, n in wanted):
            for key, n in wanted:
                if n is not None:
                    rec[key] = rec[key][:n]
            return rec


def ellipse_rle(bbox, width: int, height: int) -> str:
    """RLE of the ellipse inscribed in an integer bbox (x, y, w, h)."""
    x, y, w, h = (int(v) for v in bbox)
    cx, cy, a, b = x + w / 2.0, y + h / 2.0, w / 2.0, h / 2.0
    runs: list[int] = []
    pos = 0
    for row in range(y, y + h):
        dy = (row + 0.5 - cy) / b
        half = a * math.sqrt(max(0.0, 1.0 - dy * dy))
        x0 = max(x, int(round(cx - half)))
        x1 = min(x + w, int(round(cx + half)))
        if x1 <= x0:
            continue
        start = row * width + x0
        runs += [start - pos, x1 - x0]
        pos = start + x1 - x0
    runs.append(width * height - pos)
    return f"{width}x{height}:" + " ".join(map(str, runs))


def _text_staged(rng: random.Random, index: int, slot: int) -> dict[str, dict]:
    captions, qas = TEXT_SHAPES[slot]
    rec = _draw(rng, index, "textqa", max_boxes=0, max_qas=3, captions=captions, qas=qas)
    return {"textqa": rec}


def _dense_masks(rng: random.Random, index: int, slot: int) -> dict[str, dict]:
    (width, height), n_boxes = DENSE_SHAPES[slot]
    rec = _draw(rng, index, "dense", max_boxes=30, max_qas=0, dims=(width, height),
                boxes=n_boxes)
    boxes = rec["boxes"]
    # every fourth box re-annotates its predecessor one pixel off, so the
    # IoU merge pass has near-duplicates to collapse
    for i in range(3, len(boxes), 4):
        prev = boxes[i - 1]
        x, y, w, h = prev["bbox"]
        x = min(max(x + rng.randint(-1, 1), 0.0), width - w)
        y = min(max(y + rng.randint(-1, 1), 0.0), height - h)
        boxes[i] = dict(prev, bbox=[x, y, w, h])
    masked = set(rng.sample(range(len(boxes)), round(DENSE_MASK_SHARE * len(boxes))))
    for i, box in enumerate(boxes):
        depth = box["depth_mean"]
        box["depth_mean"] = round(rng.random(), 3) if depth is None else depth
        if i in masked:
            box["mask_rle"] = ellipse_rle(box["bbox"], width, height)
    return {"dense": rec}


def _full_modeled(rng: random.Random, index: int, slot: int) -> dict[str, dict]:
    captions, qas, boxes = FULL_SHAPES[slot]
    rec = _draw(rng, index, "full", max_boxes=6, max_qas=3,
                captions=captions, qas=qas, boxes=boxes)
    for box in rec["boxes"]:
        if rng.random() < FULL_MASK_SHARE:
            box["mask_rle"] = rle.from_bbox(box["bbox"], rec["width"], rec["height"])
    out = {}
    # three source datasets share the image stem; the QA one spells it in
    # upper case, which ingest canonicalises away
    for dataset, key, stem in (
        ("captions", "captions", f"img_{index:06d}"),
        ("boxes", "boxes", f"img_{index:06d}"),
        ("qa", "qas", f"IMG_{index:06d}"),
    ):
        if not rec[key]:
            continue
        part = {k: rec[k] for k in ("image_id", "width", "height")}
        part.update(dataset=dataset, uri=f"{dataset}/{stem}.jpg",
                    captions=[], boxes=[], qas=[])
        part[key] = [dict(item, source=dataset) for item in rec[key]]
        out[dataset] = part
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="text-staged",
            why="captions and QA only, staged loop with LLM verify/filter/reduce at zero "
                "latency: gateway round trips, prompts and generation bookkeeping are the cost",
            make_image=_text_staged, batch_images=len(TEXT_SHAPES), shards=1, prompts_set="staged_min",
            filtering=True, bbox_conversion=False, reduction=True,
        ),
        Workload(
            name="dense-masks",
            why="10-30 boxes per image, 80% with ellipse masks, tree conversion on: O(n^2) "
                "mask overlap, merge and grouping in scene_tree plus the rle.decode cache",
            make_image=_dense_masks, batch_images=len(DENSE_SHAPES), shards=1, prompts_set="direct_min",
            filtering=False, bbox_conversion=True, reduction=False,
        ),
        Workload(
            name="full-modeled",
            why="three datasets merged by ingest into 4 shards, all features, 20 ms + "
                "0.2 ms/char model latency: the paper's full run, bound by model calls",
            make_image=_full_modeled, batch_images=len(FULL_SHAPES), shards=4, prompts_set="default",
            filtering=True, bbox_conversion=True, reduction=True,
            latency_base_ms=20.0, latency_per_char_ms=0.2,
        ),
    )
}


def write_batch(workload: Workload, seed: int, batch: int, directory: Path,
                images: int | None = None) -> list[Path]:
    """Write one batch of per-dataset manifests; the same (workload, seed,
    batch, images) always gives the same bytes."""
    rng = random.Random(f"{workload.name}:{seed}:{batch}")
    count = workload.batch_images if images is None else images
    lines: dict[str, list[str]] = {}
    for slot in range(count):
        index = batch * workload.batch_images + slot
        for dataset, record in workload.make_image(rng, index, slot).items():
            lines.setdefault(dataset, []).append(record_line(record))
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for dataset in sorted(lines):
        path = directory / f"{dataset}.jsonl"
        path.write_text("\n".join(lines[dataset]) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
