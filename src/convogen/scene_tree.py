"""Containment hierarchy over per-image object regions.

Duplicate regions are merged with IoU / center-distance / depth gates on a
union-find closure, survivors are arranged into a smallest-container tree,
same-label siblings are grouped with count descriptors, and the result
serializes to a deterministic indented ASCII outline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from . import rle
from .metadata import Bbox, BoxAnnotation, ImageRef


@dataclass(frozen=True)
class SceneTreeParams:
    t_s: float = 0.25  # center-distance gate, as a fraction of mean box diagonal
    t_m: float = 0.9   # merge IoU threshold (strict)
    t_c: float = 0.8   # containment ratio for parent-child (relaxed)
    depth_tolerance: float = 0.15
    count_exact_max: int = 4
    count_several_max: int = 9

    def __post_init__(self):
        if not 0 < self.t_m <= 1:
            raise ValueError(f"t_m must be in (0, 1], got {self.t_m}")
        if not 0 < self.t_c <= 1:
            raise ValueError(f"t_c must be in (0, 1], got {self.t_c}")
        if self.count_exact_max >= self.count_several_max:
            raise ValueError("count_exact_max must be < count_several_max")


_PLURAL_TO_SINGULAR = (
    ("ies", "y"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("sses", "ss"),
    ("xes", "x"),
    ("zes", "z"),
)


@lru_cache(maxsize=1024)
def normalize_label(label: str) -> str:
    """Lowercase, collapse whitespace, singularize the final word."""
    words = label.lower().split()
    if not words:
        return ""
    last = words[-1]
    for suffix, repl in _PLURAL_TO_SINGULAR:
        if last.endswith(suffix) and len(last) > len(suffix) + 1:
            last = last[: -len(suffix)] + repl
            break
    else:
        if len(last) > 3 and last.endswith("s") and not last.endswith(("ss", "us", "is")):
            last = last[:-1]
    return " ".join(words[:-1] + [last])


def pluralize(label: str) -> str:
    words = label.split()
    last = words[-1] if words else ""
    if last.endswith(("s", "x", "z", "ch", "sh")):
        last += "es"
    elif len(last) > 1 and last.endswith("y") and last[-2] not in "aeiou":
        last = last[:-1] + "ies"
    else:
        last += "s"
    return " ".join(words[:-1] + [last])


@dataclass(frozen=True)
class SceneRegion:
    label: str
    bbox: Bbox
    mask: Optional[rle.Intervals] = field(default=None, repr=False)
    depth_mean: Optional[float] = None
    attributes: tuple[str, ...] = ()
    members: int = 1
    area: float = 0.0           # derived when left at 0: mask area, else bbox area

    def __post_init__(self):
        if self.area <= 0:
            _, _, w, h = self.bbox
            area = float(self.mask.area) if self.mask else w * h
            object.__setattr__(self, "area", area)
        if self.area <= 0:
            raise ValueError(f"region {self.label!r} has zero area")
        if self.members < 1:
            raise ValueError("members must be >= 1")


def region_from_box(box: BoxAnnotation) -> SceneRegion:
    """Build a region from a box annotation as ``load_bundle`` returns it,
    already clamped to its image."""
    return SceneRegion(
        label=normalize_label(box.label),
        bbox=box.bbox,
        mask=rle.intervals(box.mask_rle) if box.mask_rle else None,
        depth_mean=box.depth_mean,
        attributes=tuple(sorted(set(box.attributes))),
    )


class OverlapStats(NamedTuple):
    iou: float
    containment: float       # |a ∩ b| / |a|
    center_dist_norm: float  # center distance / mean bbox diagonal


def _center_dist(a: SceneRegion, b: SceneRegion) -> float:
    """Distance of the bbox centers over the mean bbox diagonal."""
    ax, ay, aw, ah = a.bbox
    bx, by, bw, bh = b.bbox
    dist = math.hypot((ax + aw / 2.0) - (bx + bw / 2.0), (ay + ah / 2.0) - (by + bh / 2.0))
    mean_diag = (math.hypot(aw, ah) + math.hypot(bw, bh)) / 2.0
    return dist / mean_diag if mean_diag > 0 else 0.0


def _intersection(a: SceneRegion, b: SceneRegion) -> tuple[float, float, float]:
    """(|a ∩ b|, |a|, |b|): over the masks when both regions carry one, else
    over the boxes. Masks on different image grids raise ``ValueError``."""
    if a.mask and b.mask:
        return float(rle.overlap(a.mask, b.mask)), float(a.mask.area), float(b.mask.area)
    ax, ay, aw, ah = a.bbox
    bx, by, bw, bh = b.bbox
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    return max(iw, 0.0) * max(ih, 0.0), aw * ah, bw * bh


def overlap_stats(a: SceneRegion, b: SceneRegion) -> OverlapStats:
    """Pairwise overlap; mask-based when both regions carry masks."""
    inter, area_a, area_b = _intersection(a, b)
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    containment = inter / area_a if area_a > 0 else 0.0
    return OverlapStats(iou=iou, containment=containment, center_dist_norm=_center_dist(a, b))


def region_sort_key(r: SceneRegion):
    """Canonical region order: descending area, then full content.

    Content-based tie-breaking keeps every downstream step independent of
    input order, so shuffled inputs serialize byte-identically.
    """
    return (
        -r.area,
        r.label,
        r.bbox,
        r.depth_mean is None,
        r.depth_mean or 0.0,
        r.attributes,
        r.members,
        r.mask or (),
    )


def _mergeable(a: SceneRegion, b: SceneRegion, p: SceneTreeParams) -> bool:
    """Same-label pair: the depth gate, then the center-distance gate, then
    the mask or box IoU. Masks on different grids raise before any gate
    that reads only boxes could skip the pair."""
    if (
        a.depth_mean is not None
        and b.depth_mean is not None
        and abs(a.depth_mean - b.depth_mean) > p.depth_tolerance
    ):
        return False
    if a.mask and b.mask:
        rle.same_grid(a.mask, b.mask)
    if _center_dist(a, b) > p.t_s:
        return False
    return overlap_stats(a, b).iou >= p.t_m


def _union_bbox(regions: list[SceneRegion]) -> tuple[float, float, float, float]:
    x0 = min(r.bbox[0] for r in regions)
    y0 = min(r.bbox[1] for r in regions)
    x1 = max(r.bbox[0] + r.bbox[2] for r in regions)
    y1 = max(r.bbox[1] + r.bbox[3] for r in regions)
    return (x0, y0, x1 - x0, y1 - y0)


def _member_weighted_depth(regions: list[SceneRegion]) -> Optional[float]:
    """Mean depth weighted by member count; None when no region has a depth."""
    weighted = [(r.depth_mean, r.members) for r in regions if r.depth_mean is not None]
    if not weighted:
        return None
    return sum(d * m for d, m in weighted) / sum(m for _, m in weighted)


def _merge_component(regions: list[SceneRegion]) -> SceneRegion:
    if len(regions) == 1:
        return regions[0]
    mask = None
    if all(r.mask for r in regions):
        mask = rle.union([r.mask for r in regions])
    return SceneRegion(
        label=regions[0].label,
        bbox=_union_bbox(regions),
        mask=mask,
        depth_mean=_member_weighted_depth(regions),
        attributes=tuple(sorted({a for r in regions for a in r.attributes})),
        members=sum(r.members for r in regions),
    )


def merge_duplicates(regions: list[SceneRegion], p: SceneTreeParams) -> list[SceneRegion]:
    """Collapse same-label regions that pass the IoU, spatial, and depth gates.

    Merging runs on the transitive closure, so the partition does not depend
    on input order. Regions at clearly different depths are never merged.
    Only regions of one label are ever paired.
    """
    ordered = sorted(regions, key=region_sort_key)
    by_label: dict[str, list[int]] = {}
    for i, region in enumerate(ordered):
        by_label.setdefault(region.label, []).append(i)
    parent = list(range(len(ordered)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for bucket in by_label.values():
        for k, i in enumerate(bucket):
            for j in bucket[k + 1:]:
                if _mergeable(ordered[i], ordered[j], p):
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)  # a component's root is its first region
    components: dict[int, list[SceneRegion]] = {}
    for i, region in enumerate(ordered):
        components.setdefault(find(i), []).append(region)
    merged = [_merge_component(group) for group in components.values()]
    return sorted(merged, key=region_sort_key)


@dataclass
class TreeNode:
    region: SceneRegion
    children: list["TreeNode"] = field(default_factory=list)
    count_label: Optional[str] = None  # set exactly on a synthetic group node
    avg_size: Optional[tuple[float, float]] = None


def _contains(outer: SceneRegion, inner: SceneRegion, t_c: float) -> bool:
    """``overlap_stats(inner, outer).containment >= t_c``, by the same float
    expressions. Two masks whose pixel extents overlap too little for the
    ratio to reach t_c are decided without walking runs: |a ∩ b| is at most
    the extent overlap, and dividing both by one area keeps that order."""
    a, b = inner.mask, outer.mask
    if a and b:
        # an empty mask's extent is all zeros, so it overlaps no extent
        iw = (a.x1 if a.x1 < b.x1 else b.x1) - (a.x0 if a.x0 > b.x0 else b.x0)
        if iw <= 0:
            return False
        ih = (a.y1 if a.y1 < b.y1 else b.y1) - (a.y0 if a.y0 > b.y0 else b.y0)
        if ih <= 0 or float(iw * ih) / a.area < t_c:
            return False
    inter, area, _ = _intersection(inner, outer)
    return area > 0 and inter / area >= t_c


def build_tree(regions: list[SceneRegion], p: SceneTreeParams) -> list[TreeNode]:
    """Place regions in descending-area order under their smallest container;
    returns the roots.

    A region becomes a child of the already-placed region with the smallest
    area whose containment ratio is >= t_c (earliest placed wins area ties),
    otherwise a root. Masks on different grids raise ``ValueError``.
    """
    ordered = sorted(regions, key=region_sort_key)
    masks = [r.mask for r in ordered if r.mask]
    for mask in masks[1:]:
        rle.same_grid(masks[0], mask)
    placed: list[TreeNode] = []
    roots: list[TreeNode] = []
    for region in ordered:
        node = TreeNode(region=region)
        parent: Optional[TreeNode] = None
        # latest placed first: areas only grow, so the first container found
        # is the smallest, and earlier ones of the same area win the tie
        for candidate in reversed(placed):
            if parent is not None and candidate.region.area > parent.region.area:
                break
            if _contains(candidate.region, region, p.t_c):
                parent = candidate
        (parent.children if parent else roots).append(node)
        placed.append(node)
    return roots


def _count_descriptor(total: int, p: SceneTreeParams) -> str:
    if total <= p.count_exact_max:
        return str(total)
    if total <= p.count_several_max:
        return "several"
    return "many"


def _sibling_key(node: TreeNode):
    r = node.region
    # nearest (smallest depth) first, unknown last, then the canonical order
    return (r.depth_mean is None, r.depth_mean or 0.0, *region_sort_key(r))


def group_and_count(nodes: list[TreeNode], p: SceneTreeParams) -> list[TreeNode]:
    """Gather equal-label siblings under synthetic count-descriptor nodes
    and order every sibling list by depth, then area, then label."""
    for node in nodes:
        if node.children:
            node.children = group_and_count(node.children, p)
    buckets: dict[str, list[TreeNode]] = {}
    for node in nodes:
        buckets.setdefault(node.region.label, []).append(node)
    out: list[TreeNode] = []
    for label, bucket in buckets.items():
        if len(bucket) < 2:
            out.extend(bucket)
            continue
        regions = [n.region for n in bucket]
        total = sum(r.members for r in regions)
        shared_attrs = set(regions[0].attributes).intersection(*(r.attributes for r in regions))
        group_region = SceneRegion(
            label=label,
            bbox=_union_bbox(regions),
            depth_mean=_member_weighted_depth(regions),
            attributes=tuple(sorted(shared_attrs)),
            members=total,
            area=sum(r.area for r in regions),
        )
        avg_w = sum(r.bbox[2] for r in regions) / len(regions)
        avg_h = sum(r.bbox[3] for r in regions) / len(regions)
        out.append(
            TreeNode(
                region=group_region,
                children=sorted(bucket, key=_sibling_key),
                count_label=_count_descriptor(total, p),
                avg_size=(avg_w, avg_h),
            )
        )
    return sorted(out, key=_sibling_key)


def _format_region(node: TreeNode, image: ImageRef) -> str:
    r = node.region
    x, y, w, h = r.bbox
    # printed coordinates stay inside the image grid regardless of rounding
    cx = min(max(round(x + w / 2.0), 0), image.width)
    cy = min(max(round(y + h / 2.0), 0), image.height)
    attrs = f" [{', '.join(r.attributes)}]" if r.attributes else ""
    depth = f" depth={r.depth_mean:.2f}" if r.depth_mean is not None else ""
    if node.count_label is not None:
        aw, ah = node.avg_size
        head = f"{node.count_label} {pluralize(r.label)}"
        size = f"avg_size={round(aw)}x{round(ah)}"
    else:
        head = r.label
        size = f"size={round(w)}x{round(h)}"
    return f"{head}{attrs} center=({cx},{cy}) {size}{depth}"


def _collapsible(node: TreeNode) -> bool:
    # identical leaf members render as the single group line
    return node.count_label is not None and all(
        not c.children and c.count_label is None and c.region.attributes == node.children[0].region.attributes
        for c in node.children
    )


def serialize_tree(roots: list[TreeNode], image: ImageRef) -> str:
    """Render the grouped tree as two-space-indented ASCII, one node per line."""
    lines: list[str] = []

    def emit(node: TreeNode, level: int) -> None:
        lines.append("  " * level + _format_region(node, image))
        if _collapsible(node):
            return
        for child in node.children:
            emit(child, level + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def build_scene_tree(
    boxes: list[BoxAnnotation],
    image: ImageRef,
    params: SceneTreeParams,
) -> str:
    """Full pipeline for one image: merge, place, group, serialize; returns
    the ASCII tree. ``boxes`` are taken as ``load_bundle`` returns them,
    clamped to ``image``; no box is clamped here again."""
    regions = [region_from_box(b) for b in boxes]
    merged = merge_duplicates(regions, params)
    roots = group_and_count(build_tree(merged, params), params)
    return serialize_tree(roots, image)
