"""Unified, provenance-preserving data model for per-image annotations.

All types are immutable values; merging and clamping return new objects,
so bundles can be shared freely between concurrent workers. The JSON Lines
manifest schema round-trips through :func:`bundle_to_record` /
:func:`bundle_from_record`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import DegenerateBox, DimensionConflict

Bbox = tuple[float, float, float, float]


def canonical_image_stem(uri: str) -> str:
    """Lowercase file stem of a path or URL, extension stripped."""
    name = uri.rstrip("/").rsplit("/", 1)[-1]
    stem = name.rsplit(".", 1)[0] if "." in name else name
    return stem.lower()


@dataclass(frozen=True)
class ImageRef:
    dataset_id: str
    image_id: str
    uri: str
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"image {self.dataset_id}/{self.image_id}: "
                f"bad dimensions {self.width}x{self.height}"
            )
        if not self.image_id:
            raise ValueError("image_id must be non-empty")


@dataclass(frozen=True)
class CaptionAnnotation:
    text: str
    source: str

    def __post_init__(self):
        object.__setattr__(self, "text", self.text.strip())
        if not self.text:
            raise ValueError("caption text empty after trimming")


@dataclass(frozen=True)
class BoxAnnotation:
    label: str
    bbox: Bbox
    attributes: tuple[str, ...] = ()
    mask_rle: Optional[str] = None
    depth_mean: Optional[float] = None
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bbox", tuple(float(v) for v in self.bbox))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(self.bbox) != 4:
            raise ValueError(f"bbox must be [x, y, w, h], got {self.bbox}")
        _, _, w, h = self.bbox
        if w <= 0 or h <= 0:
            raise ValueError(f"box {self.label!r}: non-positive size {w}x{h}")
        if self.depth_mean is not None and not 0.0 <= self.depth_mean <= 1.0:
            raise ValueError(
                f"box {self.label!r}: depth_mean {self.depth_mean} outside [0, 1]"
            )


@dataclass(frozen=True)
class QAAnnotation:
    question: str
    answer: str
    source: str

    def __post_init__(self):
        object.__setattr__(self, "question", self.question.strip())
        object.__setattr__(self, "answer", self.answer.strip())
        if not self.question or not self.answer:
            raise ValueError("question and answer must be non-empty")


@dataclass(frozen=True)
class MetadataBundle:
    image: ImageRef
    captions: tuple[CaptionAnnotation, ...] = ()
    boxes: tuple[BoxAnnotation, ...] = ()
    qas: tuple[QAAnnotation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "captions", tuple(self.captions))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "qas", tuple(self.qas))

    @property
    def is_admissible(self) -> bool:
        """A bundle must carry at least one annotation to enter generation."""
        return bool(self.captions or self.boxes or self.qas)


def _caption_key(c: CaptionAnnotation):
    return (c.source, c.text)


def _box_key(b: BoxAnnotation):
    return (
        b.source,
        b.label,
        b.bbox,
        b.attributes,
        b.depth_mean is None,
        b.depth_mean or 0.0,
        b.mask_rle or "",
    )


def _qa_key(q: QAAnnotation):
    return (q.source, q.question, q.answer)


def _dedup_boxes(boxes: Iterable[BoxAnnotation]) -> tuple[BoxAnnotation, ...]:
    # exact duplicate = identical (label, bbox, source); attributes from
    # duplicates are unioned, mask/depth taken from the first carrier
    by_key: dict[tuple, list[BoxAnnotation]] = {}
    for box in sorted(boxes, key=_box_key):
        by_key.setdefault((box.label, box.bbox, box.source), []).append(box)
    out = []
    for group in by_key.values():
        attrs = sorted({a for b in group for a in b.attributes})
        mask = next((b.mask_rle for b in group if b.mask_rle), None)
        depth = next((b.depth_mean for b in group if b.depth_mean is not None), None)
        out.append(replace(group[0], attributes=tuple(attrs), mask_rle=mask, depth_mean=depth))
    return tuple(sorted(out, key=_box_key))


def merge_bundles(a: MetadataBundle, b: MetadataBundle) -> MetadataBundle:
    """Union two bundles for the same canonical image; the caller decides
    that they are the same.

    Exact duplicates collapse to one annotation and every list is sorted by
    (source, content), which makes the merge associative and commutative.
    """
    if (
        abs(a.image.width - b.image.width) > 1
        or abs(a.image.height - b.image.height) > 1
    ):
        raise DimensionConflict(
            f"{a.image.width}x{a.image.height} vs {b.image.width}x{b.image.height} "
            f"for {a.image.uri!r}"
        )
    image = min(
        (a.image, b.image), key=lambda im: (im.dataset_id, im.image_id, im.uri)
    )
    captions = tuple(
        sorted(set(a.captions + b.captions), key=_caption_key)
    )
    qas = tuple(sorted(set(a.qas + b.qas), key=_qa_key))
    boxes = _dedup_boxes(a.boxes + b.boxes)
    return MetadataBundle(image=image, captions=captions, boxes=boxes, qas=qas)


def clamp_box(box: BoxAnnotation, image: ImageRef) -> BoxAnnotation:
    """Intersect the box with the image rectangle."""
    x, y, w, h = box.bbox
    x0 = min(max(x, 0.0), float(image.width))
    y0 = min(max(y, 0.0), float(image.height))
    x1 = min(max(x + w, 0.0), float(image.width))
    y1 = min(max(y + h, 0.0), float(image.height))
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        raise DegenerateBox(
            f"box {box.label!r} {box.bbox} has no area inside "
            f"{image.width}x{image.height}"
        )
    clamped = (x0, y0, x1 - x0, y1 - y0)
    if clamped == box.bbox:
        return box
    return replace(box, bbox=clamped)


def bundle_to_record(bundle: MetadataBundle) -> dict:
    """Serialize to one unified-manifest JSON object."""
    im = bundle.image
    return {
        "dataset": im.dataset_id,
        "image_id": im.image_id,
        "uri": im.uri,
        "width": im.width,
        "height": im.height,
        "captions": [{"text": c.text, "source": c.source} for c in bundle.captions],
        "boxes": [
            {
                "label": b.label,
                "bbox": list(b.bbox),
                "attributes": list(b.attributes),
                "mask_rle": b.mask_rle,
                "depth_mean": b.depth_mean,
                "source": b.source,
            }
            for b in bundle.boxes
        ],
        "qas": [
            {"question": q.question, "answer": q.answer, "source": q.source}
            for q in bundle.qas
        ],
    }


def bundle_from_record(record: dict) -> MetadataBundle:
    """Parse one unified-manifest JSON object (no clamping policy applied)."""
    image = ImageRef(
        dataset_id=record["dataset"],
        image_id=str(record["image_id"]),
        uri=record["uri"],
        width=int(record["width"]),
        height=int(record["height"]),
    )
    captions = tuple(
        CaptionAnnotation(text=c["text"], source=c["source"])
        for c in record.get("captions", ())
    )
    boxes = tuple(
        BoxAnnotation(
            label=b["label"],
            bbox=tuple(b["bbox"]),
            attributes=tuple(b.get("attributes", ())),
            mask_rle=b.get("mask_rle"),
            depth_mean=b.get("depth_mean"),
            source=b["source"],
        )
        for b in record.get("boxes", ())
    )
    qas = tuple(
        QAAnnotation(question=q["question"], answer=q["answer"], source=q["source"])
        for q in record.get("qas", ())
    )
    return MetadataBundle(image=image, captions=captions, boxes=boxes, qas=qas)


def record_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)
