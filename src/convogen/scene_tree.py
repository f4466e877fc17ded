"""Containment hierarchy over per-image object regions.

Duplicate regions are merged with IoU / center-distance / depth gates on a
union-find closure, survivors are arranged into a smallest-container tree,
same-label siblings are grouped with count descriptors, and the result
serializes to a deterministic indented ASCII outline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from . import rle
from .metadata import Bbox, BoxAnnotation, ImageRef, clamp_box


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
    ("s", ""),
)


def normalize_label(label: str) -> str:
    """Lowercase, collapse whitespace, singularize the final word."""
    words = label.lower().split()
    if not words:
        return ""
    last = words[-1]
    for suffix, repl in _PLURAL_TO_SINGULAR:
        if suffix == "s":
            if len(last) > 3 and last.endswith("s") and not last.endswith(("ss", "us", "is")):
                last = last[:-1]
            break
        if last.endswith(suffix) and len(last) > len(suffix) + 1:
            last = last[: -len(suffix)] + repl
            break
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
    mask_rle: Optional[str] = None
    depth_mean: Optional[float] = None
    attributes: tuple[str, ...] = ()
    members: int = 1
    area: float = 0.0           # derived when left at 0: mask area, else bbox area

    def __post_init__(self):
        object.__setattr__(self, "bbox", tuple(float(v) for v in self.bbox))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        _, _, w, h = self.bbox
        if self.area <= 0:
            area = float(rle.foreground_area(self.mask_rle)) if self.mask_rle else w * h
            object.__setattr__(self, "area", area)
        if self.area <= 0:
            raise ValueError(f"region {self.label!r} has zero area")
        if self.members < 1:
            raise ValueError("members must be >= 1")

    @cached_property  # read in every overlap test, so derived once
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)

    @property
    def diagonal(self) -> float:
        _, _, w, h = self.bbox
        return math.hypot(w, h)


def region_from_box(box: BoxAnnotation, image: ImageRef) -> SceneRegion:
    """Build a region from a box annotation, clamped to the image."""
    box = clamp_box(box, image)
    return SceneRegion(
        label=normalize_label(box.label),
        bbox=box.bbox,
        mask_rle=box.mask_rle,
        depth_mean=box.depth_mean,
        attributes=tuple(sorted(set(box.attributes))),
    )


class OverlapStats(NamedTuple):
    iou: float
    containment: float       # |a ∩ b| / |a|
    center_dist_norm: float  # center distance / mean bbox diagonal


def _bbox_intersection(a: Bbox, b: Bbox) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    return max(iw, 0.0) * max(ih, 0.0)


def overlap_stats(a: SceneRegion, b: SceneRegion) -> OverlapStats:
    """Pairwise overlap; mask-based when both regions carry masks."""
    if a.mask_rle and b.mask_rle:
        # raises ValueError when the masks come from different image grids
        inter = float(rle.intersection_area(a.mask_rle, b.mask_rle))
        area_a = float(rle.foreground_area(a.mask_rle))
        area_b = float(rle.foreground_area(b.mask_rle))
    else:
        inter = _bbox_intersection(a.bbox, b.bbox)
        area_a = a.bbox[2] * a.bbox[3]
        area_b = b.bbox[2] * b.bbox[3]
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    containment = inter / area_a if area_a > 0 else 0.0
    dist = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
    mean_diag = (a.diagonal + b.diagonal) / 2.0
    center_dist = dist / mean_diag if mean_diag > 0 else 0.0
    return OverlapStats(iou=iou, containment=containment, center_dist_norm=center_dist)


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
        r.mask_rle or "",
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _mergeable(a: SceneRegion, b: SceneRegion, p: SceneTreeParams) -> bool:
    if a.label != b.label:
        return False
    if (
        a.depth_mean is not None
        and b.depth_mean is not None
        and abs(a.depth_mean - b.depth_mean) > p.depth_tolerance
    ):
        return False
    stats = overlap_stats(a, b)
    return stats.iou >= p.t_m and stats.center_dist_norm <= p.t_s


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
    if all(r.mask_rle for r in regions):
        mask = rle.union([r.mask_rle for r in regions])
    return SceneRegion(
        label=regions[0].label,
        bbox=_union_bbox(regions),
        mask_rle=mask,
        depth_mean=_member_weighted_depth(regions),
        attributes=tuple(sorted({a for r in regions for a in r.attributes})),
        members=sum(r.members for r in regions),
    )


def merge_duplicates(regions: list[SceneRegion], p: SceneTreeParams) -> list[SceneRegion]:
    """Collapse same-label regions that pass the IoU, spatial, and depth gates.

    Merging runs on the transitive closure, so the partition does not depend
    on input order. Regions at clearly different depths are never merged.
    """
    ordered = sorted(regions, key=region_sort_key)
    uf = _UnionFind(len(ordered))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if _mergeable(ordered[i], ordered[j], p):
                uf.union(i, j)
    components: dict[int, list[SceneRegion]] = {}
    for i, region in enumerate(ordered):
        components.setdefault(uf.find(i), []).append(region)
    merged = [_merge_component(group) for group in components.values()]
    return sorted(merged, key=region_sort_key)


@dataclass
class TreeNode:
    region: SceneRegion
    children: list["TreeNode"] = field(default_factory=list)
    is_group: bool = False
    count_label: Optional[str] = None
    avg_size: Optional[tuple[float, float]] = None


@dataclass
class SceneTree:
    roots: list[TreeNode] = field(default_factory=list)

    def walk(self) -> Iterator[TreeNode]:
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def member_total(self) -> int:
        """Pre-merge region count conserved across build and grouping."""
        return sum(n.region.members for n in self.walk() if not n.is_group)

    def depth(self) -> int:
        def node_depth(node: TreeNode) -> int:
            if not node.children:
                return 0
            return 1 + max(node_depth(c) for c in node.children)

        return max((node_depth(r) for r in self.roots), default=-1) + 1 if self.roots else 0


def build_tree(regions: list[SceneRegion], p: SceneTreeParams) -> SceneTree:
    """Place regions in descending-area order under their smallest container.

    A region becomes a child of the already-placed region with the smallest
    area whose containment ratio is >= t_c (earliest placed wins area ties),
    otherwise a root.
    """
    ordered = sorted(regions, key=region_sort_key)
    placed: list[TreeNode] = []
    roots: list[TreeNode] = []
    for region in ordered:
        node = TreeNode(region=region)
        parent: Optional[TreeNode] = None
        for candidate in placed:
            if overlap_stats(region, candidate.region).containment >= p.t_c:
                if parent is None or candidate.region.area < parent.region.area:
                    parent = candidate
        (parent.children if parent else roots).append(node)
        placed.append(node)
    tree = SceneTree(roots=roots)
    _assert_valid(tree, p)
    return tree


def _assert_valid(tree: SceneTree, p: SceneTreeParams) -> None:
    for node in tree.walk():
        for child in node.children:
            if node.is_group or child.is_group:
                continue
            stats = overlap_stats(child.region, node.region)
            assert stats.containment >= p.t_c, (
                f"child {child.region.label!r} containment {stats.containment:.3f} "
                f"below t_c={p.t_c}"
            )


def _count_descriptor(total: int, p: SceneTreeParams) -> str:
    if total <= p.count_exact_max:
        return str(total)
    if total <= p.count_several_max:
        return "several"
    return "many"


def _sibling_key(node: TreeNode):
    r = node.region
    return (
        r.depth_mean is None,       # nearest (smallest depth) first, unknown last
        r.depth_mean or 0.0,
        -r.area,
        r.label,
        region_sort_key(r),
    )


def _group_siblings(nodes: list[TreeNode], p: SceneTreeParams) -> list[TreeNode]:
    for node in nodes:
        node.children = _group_siblings(node.children, p)
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
                is_group=True,
                count_label=_count_descriptor(total, p),
                avg_size=(avg_w, avg_h),
            )
        )
    return sorted(out, key=_sibling_key)


def group_and_count(tree: SceneTree, p: SceneTreeParams) -> SceneTree:
    """Gather equal-label siblings under synthetic count-descriptor nodes
    and order every sibling list by depth, then area, then label."""
    return SceneTree(roots=_group_siblings(tree.roots, p))


def _format_region(node: TreeNode, image: ImageRef) -> str:
    r = node.region
    # printed coordinates stay inside the image grid regardless of rounding
    cx = min(max(int(round(r.center[0])), 0), image.width)
    cy = min(max(int(round(r.center[1])), 0), image.height)
    attrs = f" [{', '.join(r.attributes)}]" if r.attributes else ""
    depth = f" depth={r.depth_mean:.2f}" if r.depth_mean is not None else ""
    if node.is_group:
        aw, ah = node.avg_size
        head = f"{node.count_label} {pluralize(r.label)}"
        size = f"avg_size={int(round(aw))}x{int(round(ah))}"
    else:
        head = r.label
        size = f"size={int(round(r.bbox[2]))}x{int(round(r.bbox[3]))}"
    return f"{head}{attrs} center=({cx},{cy}) {size}{depth}"


def _collapsible(node: TreeNode) -> bool:
    # identical leaf members render as the single group line
    return node.is_group and all(
        not c.children and not c.is_group and c.region.attributes == node.children[0].region.attributes
        for c in node.children
    )


def serialize_tree(tree: SceneTree, image: ImageRef) -> str:
    """Render the grouped tree as two-space-indented ASCII, one node per line."""
    lines: list[str] = []

    def emit(node: TreeNode, level: int) -> None:
        lines.append("  " * level + _format_region(node, image))
        if _collapsible(node):
            return
        for child in node.children:
            emit(child, level + 1)

    for root in tree.roots:
        emit(root, 0)
    return "\n".join(lines)


def build_scene_tree(
    boxes: list[BoxAnnotation],
    image: ImageRef,
    params: SceneTreeParams,
) -> tuple[SceneTree, str]:
    """Full pipeline for one image: merge, place, group, serialize."""
    regions = [region_from_box(b, image) for b in boxes]
    merged = merge_duplicates(regions, params)
    tree = group_and_count(build_tree(merged, params), params)
    return tree, serialize_tree(tree, image)
