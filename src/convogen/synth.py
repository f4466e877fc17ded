"""Deterministic synthetic corpora for benchmarks, fixtures, and stress tests."""

from __future__ import annotations

import random
from pathlib import Path

from . import rle
from .ingestion import publish
from .metadata import record_line

LABELS = ["person", "dog", "cat", "car", "tree", "chair", "apple", "bottle", "bird", "lamp"]
ATTRIBUTES = ["red", "blue", "small", "large", "wooden", "bright", "striped", "old"]
PLACES = ["a park", "a street", "a kitchen", "a beach", "an office", "a garden"]
VERBS = ["standing in", "resting in", "placed in", "moving through", "visible in"]
QUESTIONS = [
    ("What color is the {label}?", "It is {attr}."),
    ("How many {label}s are visible?", "There are a few."),
    ("Where is the {label}?", "Near the center of the image."),
]


def synthetic_record(rng: random.Random, index: int, *, dataset: str = "synthetic",
                     max_captions: int = 3, max_boxes: int = 6, max_qas: int = 3,
                     with_masks: bool = True, with_depth: bool = True) -> dict:
    width, height = rng.choice([(640, 480), (800, 600), (512, 512)])
    captions = []
    for _ in range(rng.randint(1, max_captions)):
        label = rng.choice(LABELS)
        attr = rng.choice(ATTRIBUTES)
        captions.append(
            {
                "text": f"A {attr} {label} {rng.choice(VERBS)} {rng.choice(PLACES)}.",
                "source": dataset,
            }
        )
    boxes = []
    n_boxes = rng.randint(0, max_boxes)
    for b in range(n_boxes):
        # repeat labels sometimes so grouping and merging have work to do
        label = rng.choice(LABELS[: max(3, len(LABELS) // 2)]) if b % 2 else rng.choice(LABELS)
        w = rng.randint(20, width // 3)
        h = rng.randint(20, height // 3)
        x = rng.randint(0, width - w)
        y = rng.randint(0, height - h)
        mask = None
        if with_masks and rng.random() < 0.5:
            mask = rle.from_bbox((x, y, w, h), width, height)
        boxes.append(
            {
                "label": label,
                "bbox": [float(x), float(y), float(w), float(h)],
                "attributes": sorted(rng.sample(ATTRIBUTES, rng.randint(0, 2))),
                "mask_rle": mask,
                "depth_mean": round(rng.random(), 3) if with_depth and rng.random() < 0.7 else None,
                "source": dataset,
            }
        )
    qas = []
    for _ in range(rng.randint(0, max_qas)):
        label = rng.choice(LABELS)
        attr = rng.choice(ATTRIBUTES)
        q_t, a_t = rng.choice(QUESTIONS)
        qas.append(
            {
                "question": q_t.format(label=label),
                "answer": a_t.format(attr=attr),
                "source": dataset,
            }
        )
    if not captions and not boxes and not qas:
        captions.append({"text": "An empty scene.", "source": dataset})
    return {
        "dataset": dataset,
        "image_id": f"{index:06d}",
        "uri": f"images/{dataset}_{index:06d}.jpg",
        "width": width,
        "height": height,
        "captions": captions,
        "boxes": boxes,
        "qas": qas,
    }


def write_synthetic_manifest(path: str | Path, n: int, seed: int = 0, **kwargs) -> Path:
    """Write n deterministic records; same (n, seed, kwargs) -> same bytes."""
    rng = random.Random(seed)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    publish(path, (record_line(synthetic_record(rng, i, **kwargs)) + "\n" for i in range(n)))
    return path
