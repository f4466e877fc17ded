import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from convogen import metadata, rle
from convogen.ingestion import load_bundle
from convogen.metadata import BoxAnnotation, ImageRef
from convogen.scene_tree import (
    SceneRegion,
    SceneTreeParams,
    _merge_component,
    build_scene_tree,
    build_tree,
    group_and_count,
    merge_duplicates,
    normalize_label,
    overlap_stats,
    pluralize,
    region_from_box,
    region_sort_key,
    serialize_tree,
)

from convogen.synth import synthetic_record

from conftest import DATA_DIR, make_image, masks_on
from oracles import encode, grid

P = SceneTreeParams()


def region(label="thing", bbox=(0, 0, 10, 10), mask=None, depth=None, attrs=(), members=1):
    """``mask``: an RLE string, parsed here, or a region's parsed mask."""
    return SceneRegion(
        label=label, bbox=bbox, mask=rle.intervals(mask) if isinstance(mask, str) else mask,
        depth_mean=depth, attributes=tuple(attrs), members=members,
    )


def member_total(tree) -> int:
    """Pre-merge region count conserved across build and grouping."""

    def total(node) -> int:
        own = 0 if node.count_label is not None else node.region.members
        return own + sum(total(c) for c in node.children)

    return sum(total(r) for r in tree)


def depth(tree) -> int:
    def node_depth(node) -> int:
        return 1 + max((node_depth(c) for c in node.children), default=0)

    return max((node_depth(r) for r in tree), default=0)


# ---------------------------------------------------------------- oracles

def center(r: SceneRegion):
    x, y, w, h = r.bbox
    return (x + w / 2.0, y + h / 2.0)


def diagonal(r: SceneRegion):
    return math.hypot(r.bbox[2], r.bbox[3])


def oracle_rect_stats(a: SceneRegion, b: SceneRegion):
    ax, ay, aw, ah = a.bbox
    bx, by, bw, bh = b.bbox
    iw = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    ih = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    iou = inter / union if union else 0.0
    containment = inter / (aw * ah)
    dist = math.dist(center(a), center(b))
    diag = (math.hypot(aw, ah) + math.hypot(bw, bh)) / 2
    return iou, containment, dist / diag


def oracle_mask_stats_pixel_loop(a: SceneRegion, b: SceneRegion):
    """Brute-force pixel enumeration; only for small grids."""
    ma, mb = grid(a.mask), grid(b.mask)
    inter = area_a = area_b = 0
    for y in range(ma.shape[0]):
        for x in range(ma.shape[1]):
            pa, pb = bool(ma[y, x]), bool(mb[y, x])
            inter += pa and pb
            area_a += pa
            area_b += pb
    union = area_a + area_b - inter
    iou = inter / union if union else 0.0
    containment = inter / area_a if area_a else 0.0
    dist = math.dist(center(a), center(b))
    diag = (diagonal(a) + diagonal(b)) / 2
    return iou, containment, dist / diag


def oracle_stats(a: SceneRegion, b: SceneRegion):
    if a.mask and b.mask:
        ma, mb = grid(a.mask), grid(b.mask)
        inter = int(np.sum(ma & mb))
        area_a = int(ma.sum())
        area_b = int(mb.sum())
        union = area_a + area_b - inter
        iou = inter / union if union else 0.0
        containment = inter / area_a if area_a else 0.0
        dist = math.dist(center(a), center(b))
        diag = (diagonal(a) + diagonal(b)) / 2
        return iou, containment, dist / diag
    return oracle_rect_stats(a, b)


def oracle_pair_mergeable(a, b, p: SceneTreeParams):
    if a.label != b.label:
        return False
    if a.depth_mean is not None and b.depth_mean is not None:
        if abs(a.depth_mean - b.depth_mean) > p.depth_tolerance:
            return False
    iou, _, dist = oracle_stats(a, b)
    return iou >= p.t_m and dist <= p.t_s


def oracle_partition(regions, p: SceneTreeParams):
    """Transitive closure by fixed-point set merging (no union-find)."""
    groups = [{i} for i in range(len(regions))]
    changed = True
    while changed:
        changed = False
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                if any(
                    oracle_pair_mergeable(regions[i], regions[j], p)
                    for i in groups[gi]
                    for j in groups[gj]
                ):
                    groups[gi] |= groups.pop(gj)
                    changed = True
                    break
            if changed:
                break
    return {frozenset(g) for g in groups}


def oracle_parents(ordered, p: SceneTreeParams):
    """Exhaustive smallest-container assignment per canonical region order."""
    parents = []
    for idx, r in enumerate(ordered):
        candidates = [
            j for j in range(idx)
            if oracle_stats(r, ordered[j])[1] >= p.t_c
        ]
        if not candidates:
            parents.append(None)
        else:
            parents.append(min(candidates, key=lambda j: (ordered[j].area, j)))
    return parents


def tree_parent_map(tree):
    """node region -> parent region (None for roots), groups skipped."""
    mapping = {}

    def visit(node, parent_region):
        if node.count_label is not None:
            for child in node.children:
                visit(child, parent_region)
            return
        mapping[id(node.region)] = parent_region
        for child in node.children:
            visit(child, node.region)

    for root in tree:
        visit(root, None)
    return mapping


def random_scene(rng: random.Random, with_masks: bool, with_depth: bool, n_max=20, size=64):
    labels = ["cat", "dog", "box", "tree"]
    regions = []
    n = rng.randint(2, n_max)
    i = 0
    while len(regions) < n:
        w = rng.randint(4, size // 2)
        h = rng.randint(4, size // 2)
        x = rng.randint(0, size - w)
        y = rng.randint(0, size - h)
        label = rng.choice(labels)
        depth = round(rng.random(), 2) if with_depth and rng.random() < 0.8 else None
        mask = rle.from_bbox((x, y, w, h), size, size) if with_masks and rng.random() < 0.7 else None
        regions.append(region(label, (x, y, w, h), mask=mask, depth=depth))
        i += 1
        # sprinkle near-duplicates so merging actually fires
        if rng.random() < 0.4 and len(regions) < n:
            dx, dy = rng.randint(-1, 1), rng.randint(-1, 1)
            x2 = min(max(x + dx, 0), size - w)
            y2 = min(max(y + dy, 0), size - h)
            mask2 = (
                rle.from_bbox((x2, y2, w, h), size, size)
                if mask and rng.random() < 0.9
                else None
            )
            depth2 = depth if depth is None or rng.random() < 0.8 else round(rng.random(), 2)
            regions.append(region(label, (x2, y2, w, h), mask=mask2, depth=depth2))
    return regions


# ---------------------------------------------------------------- tests

class TestLabels:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Dogs", "dog"), ("  Apple ", "apple"), ("berries", "berry"),
            ("glasses", "glass"), ("boxes", "box"), ("bus", "bus"),
            ("Traffic Lights", "traffic light"), ("grass", "grass"),
            ("benches", "bench"), ("dishes", "dish"), ("quizzes", "quizz"), ("foxes", "fox"),
            # too short for a suffix rewrite, or for the bare-s rule
            ("ties", "tie"), ("its", "its"), ("yes", "yes"),
            ("status", "status"), ("axis", "axis"),
            # pins what the rules do today, not English: only "sses" loses "es"
            ("buses", "buse"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_label(raw) == expected

    @pytest.mark.parametrize(
        "singular,plural",
        [("dog", "dogs"), ("box", "boxes"), ("berry", "berries"), ("dish", "dishes")],
    )
    def test_pluralize(self, singular, plural):
        assert pluralize(singular) == plural


class TestOverlapStats:
    def test_identical_boxes(self):
        a = region(bbox=(10, 10, 20, 20))
        b = region(bbox=(10, 10, 20, 20))
        stats = overlap_stats(a, b)
        assert stats.iou == pytest.approx(1.0)
        assert stats.containment == pytest.approx(1.0)
        assert stats.center_dist_norm == pytest.approx(0.0)

    def test_box_inside_bigger_box(self):
        inner = region(bbox=(10, 10, 20, 20))
        outer = region(bbox=(0, 0, 100, 100))
        stats = overlap_stats(inner, outer)
        assert stats.containment == pytest.approx(1.0)
        assert stats.iou == pytest.approx(400 / 10000)

    def test_masked_pair_matches_pixel_loop_oracle(self):
        grid = 32
        mask_a = np.zeros((grid, grid), dtype=bool)
        mask_a[4:20, 6:22] = True
        mask_a[10:14, 2:6] = True  # irregular lobe
        mask_b = np.zeros((grid, grid), dtype=bool)
        mask_b[12:28, 10:30] = True
        a = region("m", (2, 4, 20, 16), mask=encode(mask_a))
        b = region("m", (10, 12, 20, 16), mask=encode(mask_b))
        stats = overlap_stats(a, b)
        iou, containment, dist = oracle_mask_stats_pixel_loop(a, b)
        assert stats.iou == pytest.approx(iou)
        assert stats.containment == pytest.approx(containment)
        assert stats.center_dist_norm == pytest.approx(dist)


@st.composite
def masked_regions(draw, min_regions=1, max_regions=3):
    """Regions on one grid whose masks (canonical or not) are drawn apart
    from their boxes, so a mask may lie partly or wholly outside its bbox."""
    width = draw(st.integers(min_value=1, max_value=12))
    height = draw(st.integers(min_value=1, max_value=12))
    out = []
    for _ in range(draw(st.integers(min_value=min_regions, max_value=max_regions))):
        mask = draw(masks_on(width, height))
        assume(rle.foreground_area(mask) > 0)
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        out.append(region("m", (x, y, w, h), mask=mask))
    return out


class TestMaskIntervals:
    @given(masked_regions(max_regions=2))
    def test_overlap_stats_match_decode_oracle(self, regions):
        a, b = regions[0], regions[-1]
        assert tuple(overlap_stats(a, b)) == oracle_stats(a, b)
        assert tuple(overlap_stats(b, a)) == oracle_stats(b, a)

    @given(masked_regions(min_regions=2))
    def test_merged_mask_is_encode_of_the_union(self, regions):
        merged = _merge_component(regions)
        union = np.logical_or.reduce([grid(r.mask) for r in regions])
        assert merged.mask == rle.intervals(encode(union))
        assert merged.area == int(union.sum())

    def test_mask_outside_its_bbox_counts_by_pixels(self):
        far = rle.from_bbox((6, 6, 2, 2), 8, 8)
        a = region("m", (0, 0, 2, 2), mask=far)  # the mask lies outside the box
        b = region("m", (6, 6, 2, 2), mask=far)
        c = region("m", (0, 0, 2, 2), mask=rle.from_bbox((0, 0, 2, 2), 8, 8))
        assert overlap_stats(a, b).iou == 1.0  # disjoint boxes, same pixels
        assert overlap_stats(a, c).iou == 0.0  # same box, disjoint pixels

    def test_different_grids_raise(self):
        a = region("m", mask=rle.from_bbox((0, 0, 2, 2), 4, 6))
        b = region("m", mask=rle.from_bbox((0, 0, 2, 2), 6, 4))
        with pytest.raises(ValueError):
            overlap_stats(a, b)
        with pytest.raises(ValueError):
            _merge_component([a, b])


@st.composite
def row_crossing_masks(draw, width: int, height: int) -> str:
    """One foreground run longer than a row, so it crosses a row boundary
    and its extent spans the full width."""
    size = width * height
    start = draw(st.integers(0, size - width - 1))
    end = draw(st.integers(start + width + 1, size))
    return f"{width}x{height}:{start} {end - start} {size - end}"


@st.composite
def scenes(draw, max_regions=7):
    """Regions on one grid and params to judge them by: masked and unmasked,
    masks anywhere relative to their boxes (rectangles, runs that cross rows,
    any runs), two labels and near depths, and copies one pixel off, so
    merges and containment ties happen. Each region's one attribute is its
    input index, so a merged region names its members."""
    width = draw(st.integers(min_value=2, max_value=12))
    height = draw(st.integers(min_value=2, max_value=12))
    mask_kinds = [masks_on(width, height), row_crossing_masks(width, height)]
    rects: list[tuple[int, int, int, int]] = []  # rectangle masks as (x0, y0, x1, y1)
    regions: list[SceneRegion] = []
    for i in range(draw(st.integers(min_value=1, max_value=max_regions))):
        if regions and draw(st.integers(0, 3)) == 0:  # a near copy of an earlier region
            like = draw(st.sampled_from(regions))
            x, y, w, h = like.bbox
            dx, dy = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            regions.append(region(like.label, (x + dx, y + dy, w, h), mask=like.mask,
                                  depth=like.depth_mean, attrs=(f"r{i}",)))
            continue
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            mask = None
        elif kind == 1:  # a rectangle, often inside an earlier one
            if rects and draw(st.booleans()):
                x0, y0, x1, y1 = draw(st.sampled_from(rects))
            else:
                x0, y0, x1, y1 = 0, 0, width, height
            rx0, ry0 = draw(st.integers(x0, x1 - 1)), draw(st.integers(y0, y1 - 1))
            rx1, ry1 = draw(st.integers(rx0 + 1, x1)), draw(st.integers(ry0 + 1, y1))
            rects.append((rx0, ry0, rx1, ry1))
            mask = rle.from_bbox((rx0, ry0, rx1 - rx0, ry1 - ry0), width, height)
        else:
            mask = draw(mask_kinds[kind - 2])
        if mask is not None and rle.foreground_area(mask) == 0:
            mask = None
        regions.append(region(
            draw(st.sampled_from(["a", "b"])), (x, y, w, h), mask=mask,
            depth=draw(st.sampled_from([None, 0.2, 0.3, 0.9])), attrs=(f"r{i}",),
        ))
    params = SceneTreeParams(
        t_m=draw(st.sampled_from([0.5, 0.9, 1.0])), t_c=draw(st.sampled_from([0.5, 0.8, 1.0]))
    )
    return regions, params


def assert_parents_match_oracle(regions, p):
    ordered = sorted(regions, key=region_sort_key)
    mapping = tree_parent_map(build_tree(regions, p))
    got = [None if mapping[id(r)] is None else id(mapping[id(r)]) for r in ordered]
    expected = [None if j is None else id(ordered[j]) for j in oracle_parents(ordered, p)]
    assert got == expected


class TestPairGates:
    """Merge and placement rule pairs out by label, depth, center distance
    and pixel extent before they walk runs; none of that may change a result."""

    @given(scenes())
    def test_partition_and_parents_match_the_oracles(self, scene):
        regions, p = scene
        merged = merge_duplicates(regions, p)
        partition = {frozenset(int(a[1:]) for a in r.attributes) for r in merged}
        assert partition == oracle_partition(regions, p)
        assert_parents_match_oracle(regions, p)
        assert_parents_match_oracle(merged, p)  # merged masks carry the union's extent

    def test_bound_at_exactly_t_c_and_row_crossing_runs_still_place_children(self):
        outer = region("outer", (0, 0, 10, 4), mask="10x10:0 40 60")  # rows 0-3
        # 5 pixels in column 2, rows 0-4: the extent overlap is 4 = t_c * 5,
        # and all 4 pixels lie in outer, so the containment is exactly t_c
        edge = region("edge", (2, 0, 1, 5), mask=rle.from_bbox((2, 0, 1, 5), 10, 10))
        # one run from row 1, column 7 to row 2, column 2: its extent is the full width
        crossing = region("crossing", (0, 1, 10, 2), mask="10x10:17 6 77")
        assert float(4) / edge.area == P.t_c
        regions = [edge, crossing, outer]
        tree = build_tree(regions, P)
        assert [n.region.label for n in tree] == ["outer"]
        assert [n.region.label for n in tree[0].children] == ["crossing", "edge"]
        assert_parents_match_oracle(regions, P)

    def test_masks_on_different_grids_raise_however_far_apart(self):
        # far-apart boxes and extents: the center gate and the extent bound
        # alone would skip this pair, so the grids are checked first
        mask_a, mask_b = rle.from_bbox((0, 0, 2, 2), 40, 60), rle.from_bbox((30, 30, 2, 2), 60, 40)
        a = region("m", (0, 0, 2, 2), mask=mask_a)
        b = region("m", (30, 30, 2, 2), mask=mask_b)
        with pytest.raises(ValueError, match="different grids"):
            merge_duplicates([a, b], P)
        with pytest.raises(ValueError, match="different grids"):
            build_tree([a, b], P)
        boxes = [BoxAnnotation("m", r.bbox, mask_rle=m, source="s")
                 for r, m in ((a, mask_a), (b, mask_b))]
        with pytest.raises(ValueError, match="different grids"):
            build_scene_tree(boxes, make_image(width=60, height=60), P)
        # merge pairs only same-label regions at near depths, as before
        other_label = region("n", b.bbox, mask=b.mask)
        far_depth = region("m", b.bbox, mask=b.mask, depth=0.9)
        for pair in ([a, other_label], [region("m", a.bbox, mask=a.mask, depth=0.1), far_depth]):
            assert len(merge_duplicates(pair, P)) == 2
            with pytest.raises(ValueError, match="different grids"):
                build_tree(pair, P)


class TestMergeDuplicates:
    def test_high_iou_same_depth_merges(self):
        a = region("cat", (10, 10, 40, 40), depth=0.5)
        b = region("cat", (10, 11, 40, 40), depth=0.5)  # iou ~0.95
        merged = merge_duplicates([a, b], P)
        assert len(merged) == 1
        assert merged[0].members == 2

    def test_depth_gate_blocks_merge(self):
        a = region("cat", (10, 10, 40, 40), depth=0.2)
        b = region("cat", (10, 11, 40, 40), depth=0.9)
        merged = merge_duplicates([a, b], SceneTreeParams(depth_tolerance=0.15))
        assert len(merged) == 2

    def test_different_labels_never_merge(self):
        a = region("cat", (10, 10, 40, 40))
        b = region("dog", (10, 10, 40, 40))
        assert len(merge_duplicates([a, b], P)) == 2

    def test_union_bbox_and_weighted_depth(self):
        a = region("cat", (10, 10, 40, 40), depth=0.45)
        b = region("cat", (11, 10, 40, 40), depth=0.55)
        merged = merge_duplicates([a, b], SceneTreeParams(t_m=0.8))[0]
        assert merged.members == 2
        assert merged.bbox == (10.0, 10.0, 41.0, 40.0)
        assert merged.depth_mean == pytest.approx(0.5)

    @pytest.mark.parametrize("with_masks,with_depth", [(False, False), (True, True)])
    def test_matches_closure_oracle_on_random_boxes(self, with_masks, with_depth):
        rng = random.Random(42 if with_masks else 24)
        regions = random_scene(rng, with_masks, with_depth, n_max=20)
        merged = merge_duplicates(regions, P)
        expected = oracle_partition(regions, P)
        assert len(merged) == len(expected)
        assert sum(r.members for r in merged) == len(regions)
        # component sizes must match the oracle partition exactly
        assert sorted(r.members for r in merged) == sorted(len(g) for g in expected)


class TestBuildTree:
    def test_face_inside_person(self):
        person = region("person", (0, 0, 100, 200))
        face = region("face", (30, 10, 40, 50))
        tree = build_tree([person, face], P)
        assert len(tree) == 1
        assert tree[0].region.label == "person"
        assert tree[0].children[0].region.label == "face"

    def test_disjoint_all_roots(self):
        a = region("a", (0, 0, 10, 10))
        b = region("b", (50, 50, 10, 10))
        c = region("c", (200, 200, 10, 10))
        tree = build_tree([a, b, c], P)
        assert len(tree) == 3
        assert all(not r.children for r in tree)

    def test_nested_fixture_matches_exhaustive_oracle(self):
        regions = [
            region("scene", (0, 0, 200, 200)),
            region("room", (5, 5, 150, 150)),
            region("table", (20, 20, 80, 80)),
            region("plate", (30, 30, 30, 30)),
            region("fork", (32, 32, 6, 20)),
            region("window", (120, 10, 60, 60)),
            region("cup", (60, 26, 12, 14)),
            region("crumb", (34, 34, 4, 4)),
        ]
        ordered = sorted(regions, key=region_sort_key)
        tree = build_tree(regions, P)
        parents = oracle_parents(ordered, P)
        mapping = tree_parent_map(tree)
        for idx, r in enumerate(ordered):
            expected = None if parents[idx] is None else ordered[parents[idx]]
            assert mapping[id(r)] is expected, r.label


class TestGroupAndCount:
    def test_three_apples_exact_count(self):
        siblings = [
            region("apple", (i * 40, 10, 20, 20), attrs=("red",)) for i in range(3)
        ]
        tree = group_and_count(build_tree(siblings, P), P)
        assert len(tree) == 1
        group = tree[0]
        assert group.count_label == "3"
        assert len(group.children) == 3

    def test_twelve_persons_many_with_averaged_size(self):
        siblings = [
            region("person", (i * 30, 5, 10 + i, 20)) for i in range(12)
        ]
        tree = group_and_count(build_tree(siblings, P), P)
        group = tree[0]
        assert group.count_label == "many"
        expected_w = sum(10 + i for i in range(12)) / 12
        assert group.avg_size[0] == pytest.approx(expected_w)

    def test_several_band(self):
        siblings = [region("cup", (i * 30, 5, 10, 10)) for i in range(6)]
        tree = group_and_count(build_tree(siblings, P), P)
        assert tree[0].count_label == "several"

    def test_mixed_fixture_matches_multimap_oracle(self):
        regions = (
            [region("apple", (i * 30, 10, 20, 20)) for i in range(3)]
            + [region("pear", (i * 50, 100, 22, 22)) for i in range(2)]
            + [region("lamp", (300, 300, 30, 30))]
        )
        tree = group_and_count(build_tree(regions, P), P)
        oracle: dict[str, int] = {}
        for r in regions:
            oracle[r.label] = oracle.get(r.label, 0) + 1
        got = {}
        for node in tree:
            if node.count_label is not None:
                got[node.region.label] = sum(c.region.members for c in node.children)
            else:
                got[node.region.label] = node.region.members
        assert got == oracle
        grouped_labels = {n.region.label for n in tree if n.count_label is not None}
        assert grouped_labels == {label for label, count in oracle.items() if count >= 2}

    def test_sibling_order_depth_then_area(self):
        near = region("near", (0, 0, 10, 10), depth=0.1)
        far = region("far", (20, 0, 30, 30), depth=0.9)
        unknown = region("unknown", (60, 0, 50, 50))
        tree = group_and_count(build_tree([far, unknown, near], P), P)
        assert [n.region.label for n in tree] == ["near", "far", "unknown"]


class TestSerialize:
    def test_single_node_line_contains_all_values(self):
        image = make_image(width=200, height=200)
        dog = region("dog", (30, 45, 40, 30))  # center (50, 60)
        tree = group_and_count(build_tree([dog], P), P)
        text = serialize_tree(tree, image)
        assert text.count("\n") == 0
        for token in ("dog", "(50,60)", "40x30"):
            assert token in text

    def test_empty_tree_empty_string(self):
        image = make_image()
        tree = group_and_count(build_tree([], P), P)
        assert serialize_tree(tree, image) == ""

    def test_golden_nested_fixture(self):
        image = ImageRef("demo", "golden-1", "images/golden_1.jpg", 400, 400)
        boxes = [
            BoxAnnotation("person", (50, 20, 140, 360), ("standing",), None, 0.4, "demo"),
            BoxAnnotation("face", (95, 40, 50, 60), (), None, 0.38, "demo"),
            BoxAnnotation("hand", (60, 200, 30, 40), (), None, 0.42, "demo"),
            BoxAnnotation("table", (200, 250, 180, 130), ("wooden",), None, 0.6, "demo"),
            BoxAnnotation("apples", (210, 260, 30, 30), ("red",), None, 0.58, "demo"),
            BoxAnnotation("apple", (250, 262, 28, 28), ("red",), None, 0.60, "demo"),
            BoxAnnotation("apple", (290, 258, 32, 32), ("red",), None, 0.62, "demo"),
            BoxAnnotation("dog", (300, 40, 80, 90), ("brown",), None, None, "demo"),
        ]
        text = build_scene_tree(boxes, image, P)
        golden = (DATA_DIR / "golden_tree.txt").read_text(encoding="utf-8").rstrip("\n")
        assert text == golden


class TestProperties:
    def test_permutation_invariance_of_serialization(self):
        rng = random.Random(7)
        regions = random_scene(rng, with_masks=True, with_depth=True, n_max=14)
        image = make_image(width=64, height=64)
        boxes = [
            BoxAnnotation(r.label, r.bbox, r.attributes, r.mask and encode(grid(r.mask)),
                          r.depth_mean, "s")
            for r in regions
        ]
        base = build_scene_tree(boxes, image, P)
        for _ in range(5):
            shuffled = boxes[:]
            rng.shuffle(shuffled)
            text = build_scene_tree(shuffled, image, P)
            assert text == base

    def test_regions_equal_but_for_their_masks_serialize_alike_in_every_order(self):
        # same label, box, area, depth, attributes and members; the left and
        # right halves do not merge, and only the left one holds the dot
        def box(label, bbox, mask_box):
            return BoxAnnotation(label, bbox, (), rle.from_bbox(mask_box, 20, 20), 0.5, "s")

        left = box("m", (0, 0, 20, 20), (0, 0, 10, 20))
        right = box("m", (0, 0, 20, 20), (10, 0, 10, 20))
        dot = box("dot", (2, 2, 2, 2), (2, 2, 2, 2))
        image = make_image(width=20, height=20)
        texts = {build_scene_tree(list(boxes), image, P)
                 for boxes in itertools.permutations([left, right, dot])}
        assert len(texts) == 1
        assert texts.pop().splitlines()[1:] == [
            "  m center=(10,10) size=20x20 depth=0.50",
            "    dot center=(3,3) size=2x2 depth=0.50",
            "  m center=(10,10) size=20x20 depth=0.50",
        ]

    def test_member_conservation_through_pipeline(self):
        rng = random.Random(11)
        regions = random_scene(rng, with_masks=False, with_depth=True, n_max=18)
        merged = merge_duplicates(regions, P)
        tree = group_and_count(build_tree(merged, P), P)
        assert member_total(tree) == len(regions)

    def test_raising_t_m_never_decreases_region_count(self):
        for seed in range(8):
            rng = random.Random(seed)
            regions = random_scene(rng, with_masks=False, with_depth=False, n_max=16)
            counts = [
                len(merge_duplicates(regions, SceneTreeParams(t_m=t)))
                for t in (0.5, 0.7, 0.9, 0.99)
            ]
            assert counts == sorted(counts), (seed, counts)

    def test_raising_t_c_never_increases_depth_on_typical_scenes(self):
        for seed in range(8):
            rng = random.Random(100 + seed)
            regions = random_scene(rng, with_masks=False, with_depth=False, n_max=16)
            merged = merge_duplicates(regions, P)
            depths = [
                depth(build_tree(merged, SceneTreeParams(t_c=t)))
                for t in (0.5, 0.7, 0.8, 0.95)
            ]
            assert depths == sorted(depths, reverse=True), (seed, depths)

    def test_region_from_box_rasterize_mode(self):
        mask = rle.from_bbox((5, 5, 10, 10), 50, 50)
        box = BoxAnnotation("Dogs", (5, 5, 10, 10), mask_rle=mask, source="s")
        r = region_from_box(box)
        assert r.label == "dog"
        assert r.mask == rle.intervals(mask)
        assert r.mask.area == 100


class TestClampOnce:
    def test_ingest_clamps_each_box_once_and_the_tree_never_again(self):
        # a dense-masks-like batch: up to 30 boxes an image, half with
        # masks, every third box pushed partly out of frame
        rng = random.Random(5)
        records = []
        for i in range(24):
            record = synthetic_record(rng, i, max_boxes=30, max_qas=0)
            for box in record["boxes"][::3]:
                box["bbox"][0] -= box["bbox"][2] / 2
            records.append(record)
        clamp_code = metadata.clamp_box.__code__
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is clamp_code:
                calls += 1

        sys.setprofile(count)
        try:
            bundles = [load_bundle(record) for record in records]
            trees = [build_scene_tree(list(b.boxes), b.image, P) for b in bundles]
        finally:
            sys.setprofile(None)
        assert calls == sum(len(record["boxes"]) for record in records) > 200
        assert all(tree or not b.boxes for tree, b in zip(trees, bundles))
        # a second clamp would change no box that ingest returns
        assert all(metadata.clamp_box(box, b.image) is box for b in bundles for box in b.boxes)
