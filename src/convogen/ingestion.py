"""Manifest loading, cross-dataset image linking, and grouped merging.

Grouping sorts records into link-key order using bounded in-memory runs
spilled to temp files, so arbitrarily large manifests can be merged
without holding the corpus resident.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional

from . import rle
from .config import build_section
from .errors import ConfigError, DegenerateBox, DimensionConflict, DuplicateDataset
from .metadata import (
    MetadataBundle,
    bundle_from_record,
    bundle_to_record,
    canonical_image_stem,
    clamp_box,
    merge_bundles,
    record_line,
)

FILE_STEM = "file-stem"

WarnFn = Callable[[dict], None]
ignore_warning: WarnFn = lambda warning: None  # the sink of a caller that passes none


@dataclass(frozen=True)
class DatasetDescriptor:
    dataset_id: str
    manifest_path: str
    link_namespace: str = FILE_STEM

    def __post_init__(self):
        if not self.dataset_id:
            raise ValueError("dataset_id must be non-empty")


class LinkKey(NamedTuple):
    """Cross-dataset identity of an image; sorts as (namespace, canonical_id)."""

    namespace: str
    canonical_id: str

    def __str__(self) -> str:
        return f"{self.namespace}:{self.canonical_id}"


def load_registry(path: str | Path) -> dict[str, DatasetDescriptor]:
    """Read a JSON array of descriptor objects, each checked like a config
    section, into a dict keyed by dataset id in the file's order.

    A relative ``manifest_path`` resolves against the registry file's
    directory, and the manifest must exist. An entry that repeats an
    earlier one is kept once; a different descriptor under a registered id
    raises DuplicateDataset.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read registry {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("registry config must be a JSON array")
    registry: dict[str, DatasetDescriptor] = {}
    base = Path(path).parent
    for entry in entries:
        try:
            desc = build_section(DatasetDescriptor, entry)
        except ConfigError as exc:
            raise ConfigError(f"registry {path}: {exc}") from exc
        if desc.manifest_path and not Path(desc.manifest_path).is_absolute():
            desc = replace(desc, manifest_path=str(base / desc.manifest_path))
        if not Path(desc.manifest_path).exists():
            raise ConfigError(f"manifest not found: {desc.manifest_path}")
        if registry.setdefault(desc.dataset_id, desc) != desc:
            raise DuplicateDataset(
                f"{desc.dataset_id!r} already registered with a different descriptor"
            )
    return registry


def link_key(
    dataset_id: str,
    image_id: str,
    uri: str,
    registry: Optional[dict[str, DatasetDescriptor]] = None,
    id_map: Optional[dict[tuple[str, str], str]] = None,
) -> LinkKey:
    """The canonical cross-dataset key of an image.

    The namespace is the dataset's registered one, "file-stem" without a
    registry entry. Priority: explicit id-map entry, then the namespace
    convention. The "file-stem" namespace uses the lowercase file stem of
    the uri; any other namespace treats the dataset-provided image_id as
    canonical.
    """
    desc = registry.get(dataset_id) if registry else None
    namespace = desc.link_namespace if desc else FILE_STEM
    mapped = id_map.get((dataset_id, image_id)) if id_map else None
    if mapped:
        canonical = mapped.strip().lower()
    elif namespace == FILE_STEM:
        canonical = canonical_image_stem(uri)
    else:
        canonical = image_id.strip().lower()
    if not canonical:
        raise ValueError("canonical_id must be non-empty")
    return LinkKey(namespace, canonical)


def open_input(path: str | Path, what: str, mode: str = "r") -> IO:
    """Open an input file named by the user; a missing or unreadable one is
    a config error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def publish(path: str | Path, chunks: Iterable[str], exclusive: bool = False) -> int:
    """Write a whole file: the chunks go to a temp file beside ``path``,
    unique per thread, that then replaces ``path`` (``exclusive``: is linked
    there, or FileExistsError). Whatever stops it leaves the old file or
    none and no temp file. Returns the number of chunks."""
    tmp = Path(f"{path}.{os.getpid()}-{threading.get_ident()}.tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
                count += 1
        (os.link if exclusive else os.replace)(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return count


def load_id_map(path: str | Path) -> dict[tuple[str, str], str]:
    """JSON Lines of {"dataset", "image_id", "canonical_id"}, all strings and
    the canonical id not blank; a bad row is a config error naming its line."""
    mapping: dict[tuple[str, str], str] = {}
    with open_input(path, "id map") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                dataset, image_id, canonical = row["dataset"], row["image_id"], row["canonical_id"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"id map {path}, line {lineno}: bad row: {exc!r}") from exc
            strings = all(isinstance(v, str) for v in (dataset, image_id, canonical))
            if not strings or not canonical.strip():
                raise ConfigError(
                    f"id map {path}, line {lineno}: dataset, image_id and canonical_id "
                    "must be strings, canonical_id not blank"
                )
            mapping[(dataset, image_id)] = canonical
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
    record: dict, on_warning: WarnFn = ignore_warning, base_dir: Optional[Path] = None
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
                on_warning(
                    {
                        "image_id": image.image_id,
                        "reason": f"invalid mask on box {box.label!r}, mask dropped",
                    }
                )
                box = replace(box, mask_rle=None)
        try:
            kept.append(clamp_box(box, image))
        except DegenerateBox:
            on_warning(
                {
                    "image_id": image.image_id,
                    "reason": f"box {box.label!r} {box.bbox} fully outside image, dropped",
                }
            )
    return MetadataBundle(
        image=image, captions=bundle.captions, boxes=tuple(kept), qas=bundle.qas
    )


def load_manifest(
    path: str | Path, on_warning: WarnFn = ignore_warning
) -> Iterator[MetadataBundle]:
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
                on_warning({"line": lineno, "reason": f"unparseable record: {exc!r}"})
                continue
            yield bundle


def _spill_run(run: list[tuple[LinkKey, MetadataBundle]], tmp_dir: str) -> Path:
    path = Path(tempfile.mkstemp(dir=tmp_dir, suffix=".jsonl")[1])
    with open(path, "w", encoding="utf-8") as fh:
        for key, bundle in run:
            fh.write(json.dumps([list(key), bundle_to_record(bundle)]) + "\n")
    return path


def _read_run(path: Path) -> Iterator[tuple[LinkKey, MetadataBundle]]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, record = json.loads(line)
            yield LinkKey(*key), bundle_from_record(record)


def _sorted_by_key(
    records: Iterable[MetadataBundle],
    key_of: Callable[[MetadataBundle], LinkKey],
    run_size: int,
) -> Iterator[tuple[LinkKey, MetadataBundle]]:
    run: list[tuple[LinkKey, MetadataBundle]] = []
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
    registry: Optional[dict[str, DatasetDescriptor]] = None,
    id_map: Optional[dict[tuple[str, str], str]] = None,
    run_size: int = 50_000,
    on_warning: WarnFn = ignore_warning,
) -> Iterator[MetadataBundle]:
    """Merge bundles that resolve to the same link key.

    Emits one bundle per distinct key, in key order. An image whose datasets
    disagree on its size by >1px is dropped and reported to ``on_warning``.
    """

    def key_of(bundle: MetadataBundle) -> LinkKey:
        image = bundle.image
        return link_key(image.dataset_id, image.image_id, image.uri, registry, id_map)

    stream = _sorted_by_key(records, key_of, run_size)
    for key, group in itertools.groupby(stream, key=lambda kb: kb[0]):
        merged = None
        try:
            for _, bundle in group:
                merged = bundle if merged is None else merge_bundles(merged, bundle)
        except DimensionConflict as exc:
            on_warning({"image_id": str(key), "reason": f"image dropped: {exc}"})
            continue
        yield merged


def write_manifest(bundles: Iterable[MetadataBundle], path: str | Path) -> int:
    """Publish bundles as unified-manifest JSONL; returns the record count."""
    return publish(path, (record_line(bundle_to_record(b)) + "\n" for b in bundles))
