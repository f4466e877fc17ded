"""Manifest loading, cross-dataset image linking, and grouped merging.

Grouping sorts records into link-key order using bounded in-memory runs
spilled to temp files, so arbitrarily large manifests can be merged
without holding the corpus resident.
"""

from __future__ import annotations

import heapq
import itertools
import json
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional

from . import rle
from .config import build_section
from .errors import ConfigError, DegenerateBox, DuplicateDataset
from .metadata import (
    ImageRef,
    MetadataBundle,
    bundle_from_record,
    bundle_to_record,
    canonical_image_stem,
    clamp_box,
    merge_bundles,
    record_line,
)

FILE_STEM = "file-stem"

WarnFn = Optional[Callable[[dict], None]]


@dataclass(frozen=True)
class DatasetDescriptor:
    dataset_id: str
    manifest_path: str
    link_namespace: str = FILE_STEM

    def __post_init__(self):
        if not self.dataset_id:
            raise ValueError("dataset_id must be non-empty")


@dataclass(frozen=True)
class LinkKey:
    namespace: str
    canonical_id: str

    def __post_init__(self):
        if not self.canonical_id:
            raise ValueError("canonical_id must be non-empty")

    def __str__(self) -> str:
        return f"{self.namespace}:{self.canonical_id}"


class DatasetRegistry:
    """Write-once mapping of dataset_id -> descriptor, frozen before the run."""

    def __init__(self):
        self._by_id: dict[str, DatasetDescriptor] = {}

    def register(self, desc: DatasetDescriptor) -> "DatasetRegistry":
        if not Path(desc.manifest_path).exists():
            raise ConfigError(f"manifest not found: {desc.manifest_path}")
        existing = self._by_id.get(desc.dataset_id)
        if existing is not None:
            if existing == desc:
                return self
            raise DuplicateDataset(
                f"{desc.dataset_id!r} already registered with a different descriptor"
            )
        self._by_id[desc.dataset_id] = desc
        return self

    def namespace_for(self, dataset_id: str) -> str:
        desc = self._by_id.get(dataset_id)
        return desc.link_namespace if desc else FILE_STEM

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[DatasetDescriptor]:
        return iter(self._by_id.values())

    @classmethod
    def from_config(cls, path: str | Path) -> "DatasetRegistry":
        """Load a JSON array of descriptor objects, each checked like a
        config section."""
        try:
            entries = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read registry {path}: {exc}") from exc
        if not isinstance(entries, list):
            raise ConfigError("registry config must be a JSON array")
        registry = cls()
        base = Path(path).parent
        for entry in entries:
            try:
                desc = build_section(DatasetDescriptor, entry)
            except ConfigError as exc:
                raise ConfigError(f"registry {path}: {exc}") from exc
            if desc.manifest_path and not Path(desc.manifest_path).is_absolute():
                desc = replace(desc, manifest_path=str(base / desc.manifest_path))
            registry.register(desc)
        return registry


def link_key(
    image: ImageRef,
    namespace: str,
    id_map: Optional[dict[tuple[str, str], str]] = None,
) -> LinkKey:
    """Derive the canonical cross-dataset key for an image."""
    return link_key_of(image.dataset_id, image.image_id, image.uri, namespace, id_map)


def link_key_of(
    dataset_id: str,
    image_id: str,
    uri: str,
    namespace: str,
    id_map: Optional[dict[tuple[str, str], str]] = None,
) -> LinkKey:
    """The link key from the three image fields it is made of.

    Priority: explicit id-map entry, then the namespace convention. The
    "file-stem" namespace uses the lowercase file stem of the uri; any
    other namespace treats the dataset-provided image_id as canonical.
    """
    if id_map:
        mapped = id_map.get((dataset_id, image_id))
        if mapped:
            return LinkKey(namespace, mapped.strip().lower())
    if namespace == FILE_STEM:
        return LinkKey(namespace, canonical_image_stem(uri))
    return LinkKey(namespace, image_id.strip().lower())


def open_input(path: str | Path, what: str, mode: str = "r") -> IO:
    """Open an input file named by the user; a missing or unreadable one is
    a config error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_id_map(path: str | Path) -> dict[tuple[str, str], str]:
    """JSON Lines of {"dataset", "image_id", "canonical_id"}; a bad row is a
    config error naming its line."""
    mapping: dict[tuple[str, str], str] = {}
    with open_input(path, "id map") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                mapping[(row["dataset"], str(row["image_id"]))] = row["canonical_id"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"id map {path}, line {lineno}: bad row: {exc!r}") from exc
    return mapping


def _apply_sidecar(record: dict, base_dir: Optional[Path], on_warning: WarnFn) -> dict:
    """Merge a mask/depth sidecar file into the record's boxes.

    A record may carry ``"sidecar": <path>`` pointing at a JSON file of
    ``{"boxes": [{"index", "mask_rle", "depth_mean"}, ...]}``, typically
    produced offline by segmentation/depth models. Inline fields win.
    """
    sidecar = record.get("sidecar")
    if not sidecar:
        return record
    path = Path(sidecar)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    try:
        extra = json.loads(path.read_text(encoding="utf-8"))
        by_index = {int(e["index"]): e for e in extra.get("boxes", [])}
    except (OSError, ValueError, KeyError) as exc:
        if on_warning:
            on_warning(
                {
                    "image_id": str(record.get("image_id", "?")),
                    "reason": f"unreadable sidecar {sidecar}: {exc}",
                }
            )
        return record
    record = dict(record)
    boxes = []
    for i, box in enumerate(record.get("boxes", [])):
        entry = by_index.get(i)
        if entry:
            box = dict(box)
            if box.get("mask_rle") is None and entry.get("mask_rle") is not None:
                box["mask_rle"] = entry["mask_rle"]
            if box.get("depth_mean") is None and entry.get("depth_mean") is not None:
                box["depth_mean"] = entry["depth_mean"]
        boxes.append(box)
    record["boxes"] = boxes
    return record


def load_bundle(
    record: dict, on_warning: WarnFn = None, base_dir: Optional[Path] = None
) -> MetadataBundle:
    """Parse a manifest record and apply the box admission policy.

    Partially out-of-frame boxes are clamped; fully outside boxes are
    dropped with a warning. Masks that do not match the image grid or have
    an empty foreground are stripped (the box itself is kept).
    """
    record = _apply_sidecar(record, base_dir, on_warning)
    bundle = bundle_from_record(record)
    image = bundle.image
    kept = []
    for box in bundle.boxes:
        mask = box.mask_rle
        if mask is not None:
            try:
                parsed = rle.intervals(mask)  # one cached parse, reused by the scene tree
                ok = (
                    (parsed.width, parsed.height) == (image.width, image.height)
                    and parsed.area > 0
                )
            except ValueError:
                ok = False
            if not ok:
                if on_warning:
                    on_warning(
                        {
                            "image_id": image.image_id,
                            "reason": f"invalid mask on box {box.label!r}, mask dropped",
                        }
                    )
                box = type(box)(
                    label=box.label,
                    bbox=box.bbox,
                    attributes=box.attributes,
                    mask_rle=None,
                    depth_mean=box.depth_mean,
                    source=box.source,
                )
        try:
            kept.append(clamp_box(box, image))
        except DegenerateBox:
            if on_warning:
                on_warning(
                    {
                        "image_id": image.image_id,
                        "reason": f"box {box.label!r} {box.bbox} fully outside image, dropped",
                    }
                )
    return MetadataBundle(
        image=image, captions=bundle.captions, boxes=tuple(kept), qas=bundle.qas
    )


def load_manifest(path: str | Path, on_warning: WarnFn = None) -> Iterator[MetadataBundle]:
    """Stream bundles from a unified JSONL manifest, skipping bad lines.

    Whatever a line raises makes it that line's warning, never the
    stream's end. Relative sidecar paths resolve against the manifest's
    directory.
    """
    base_dir = Path(path).resolve().parent
    with open_input(path, "manifest") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                bundle = load_bundle(json.loads(line), on_warning, base_dir=base_dir)
            except Exception as exc:
                if on_warning:
                    on_warning({"line": lineno, "reason": f"unparseable record: {exc!r}"})
                continue
            yield bundle


def _spill_run(run: list[tuple[tuple[str, str], MetadataBundle]], tmp_dir: str) -> Path:
    path = Path(tempfile.mkstemp(dir=tmp_dir, suffix=".jsonl")[1])
    with open(path, "w", encoding="utf-8") as fh:
        for key, bundle in run:
            fh.write(json.dumps([list(key), bundle_to_record(bundle)]) + "\n")
    return path


def _read_run(path: Path) -> Iterator[tuple[tuple[str, str], MetadataBundle]]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, record = json.loads(line)
            yield tuple(key), bundle_from_record(record)


def _sorted_by_key(
    records: Iterable[MetadataBundle],
    key_of: Callable[[MetadataBundle], tuple[str, str]],
    run_size: int,
) -> Iterator[tuple[tuple[str, str], MetadataBundle]]:
    run: list[tuple[tuple[str, str], MetadataBundle]] = []
    spilled: list[Path] = []
    tmp_dir = None
    try:
        for bundle in records:
            run.append((key_of(bundle), bundle))
            if len(run) >= run_size:
                run.sort(key=lambda kb: kb[0])
                if tmp_dir is None:
                    tmp_dir = tempfile.mkdtemp(prefix="convogen-sort-")
                spilled.append(_spill_run(run, tmp_dir))
                run = []
        run.sort(key=lambda kb: kb[0])
        if not spilled:
            yield from run
            return
        streams = [_read_run(p) for p in spilled] + [iter(run)]
        yield from heapq.merge(*streams, key=lambda kb: kb[0])
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)


def group_by_image(
    records: Iterable[MetadataBundle],
    registry: Optional[DatasetRegistry] = None,
    id_map: Optional[dict[tuple[str, str], str]] = None,
    run_size: int = 50_000,
) -> Iterator[MetadataBundle]:
    """Merge bundles that resolve to the same link key.

    Emits one bundle per distinct key, in key order. Raises
    DimensionConflict from merging when datasets disagree by >1px.
    """

    def namespace_of(image: ImageRef) -> str:
        return registry.namespace_for(image.dataset_id) if registry else FILE_STEM

    def key_of(image: ImageRef) -> tuple[str, str]:
        k = link_key(image, namespace_of(image), id_map)
        return (k.namespace, k.canonical_id)

    stream = _sorted_by_key(records, lambda bundle: key_of(bundle.image), run_size)
    for _, group in itertools.groupby(stream, key=lambda kb: kb[0]):
        merged = None
        for _, bundle in group:
            merged = bundle if merged is None else merge_bundles(merged, bundle, key=key_of)
        yield merged


def write_manifest(bundles: Iterable[MetadataBundle], path: str | Path) -> int:
    """Write bundles as unified-manifest JSONL; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for bundle in bundles:
            fh.write(record_line(bundle_to_record(bundle)) + "\n")
            count += 1
    return count
