import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convogen import rle

from conftest import masks_on
from oracles import bounds, encode


def test_round_trip_simple():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1:3, 2:4] = True
    encoded = encode(mask)
    assert encoded.startswith("5x4:")
    assert np.array_equal(rle.decode(encoded), mask)


def test_all_background_and_all_foreground():
    empty = np.zeros((3, 3), dtype=bool)
    full = np.ones((3, 3), dtype=bool)
    assert encode(empty) == "3x3:9"
    assert encode(full) == "3x3:0 9"
    assert rle.foreground_area(encode(empty)) == 0
    assert rle.foreground_area(encode(full)) == 9


def test_grid_size_and_area():
    encoded = rle.from_bbox((1, 1, 2, 2), 5, 4)
    assert rle.intervals(encoded)[:2] == (5, 4)
    assert rle.foreground_area(encoded) == 4


def test_bad_runs_rejected():
    with pytest.raises(ValueError):
        rle.decode("3x3:4")  # sums to 4, not 9
    with pytest.raises(ValueError):
        rle.decode("no-header")


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_random(width, height, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) > 0.5
    assert np.array_equal(rle.decode(encode(mask)), mask)


# ------------------------------------------------- interval arithmetic

def union_of(masks: list[str]) -> rle.Intervals:
    return rle.union([rle.intervals(m) for m in masks])


def overlap_of(a: str, b: str) -> int:
    return rle.overlap(rle.intervals(a), rle.intervals(b))


grids = st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))


@st.composite
def mask_sets(draw, max_masks=4):
    width, height = draw(grids)
    return draw(st.lists(masks_on(width, height), min_size=1, max_size=max_masks))


def wide_mask_sets(max_masks=4):
    """Many intervals per mask, so the overlap window cuts off some of them."""
    return st.lists(masks_on(64, 48, max_cuts=120), min_size=1, max_size=max_masks)


@given(mask_sets(max_masks=2) | wide_mask_sets(max_masks=2))
def test_intersection_and_area_match_decode_oracle(masks):
    a, b = masks[0], masks[-1]
    ma, mb = rle.decode(a), rle.decode(b)
    assert overlap_of(a, b) == int(np.logical_and(ma, mb).sum())
    assert overlap_of(b, a) == overlap_of(a, b)
    assert rle.foreground_area(a) == int(ma.sum())
    assert rle.intervals(a)[:2] == (ma.shape[1], ma.shape[0])


@given(mask_sets() | wide_mask_sets())
def test_union_is_byte_identical_to_encode(masks):
    union = np.logical_or.reduce([rle.decode(m) for m in masks])
    # intervals, area and extent, as if the pixel union's encoding were parsed
    assert union_of(masks) == rle.intervals(encode(union))


@given(mask_sets() | wide_mask_sets())
def test_extent_is_the_bounding_box_of_the_pixels(masks):
    for mask in masks:
        iv = rle.intervals(mask)
        ys, xs = np.nonzero(rle.decode(mask))
        if len(xs):
            expected = (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)
        else:
            expected = (0, 0, 0, 0)
        assert (iv.x0, iv.y0, iv.x1, iv.y1) == tuple(int(v) for v in expected)


def test_a_run_across_a_row_boundary_spans_the_full_width():
    iv = rle.intervals("10x4:17 6 17")  # row 1 from column 7 to row 2, column 2
    assert (iv.x0, iv.y0, iv.x1, iv.y1) == (0, 1, 10, 3)


@pytest.mark.parametrize(
    "mask, canonical",
    [
        ("3x2:0 2 0 0 4", "3x2:0 2 4"),   # leading foreground, zero-length inner runs
        ("3x2:1 0 0 2 3 0", "3x2:1 2 3"),  # zero-length foreground, trailing 0 run
        ("3x2:2 2 0 2", "3x2:2 4"),        # touching foreground runs join
        ("3x2:6", "3x2:6"),                # all background
        ("3x2:0 6", "3x2:0 6"),            # all foreground
        ("3x2:0 0 6 0", "3x2:6"),
    ],
)
def test_union_of_one_mask_is_canonical(mask, canonical):
    assert canonical == encode(rle.decode(mask))
    assert union_of([mask]) == rle.intervals(mask) == rle.intervals(canonical)


def test_all_background_and_all_foreground_intervals():
    empty, full = "4x3:12", "4x3:0 12"
    assert rle.foreground_area(empty) == 0
    assert rle.foreground_area(full) == 12
    assert overlap_of(empty, full) == 0
    assert overlap_of(full, full) == 12
    assert union_of([empty, empty]) == rle.intervals(empty)
    assert union_of([empty, full]) == rle.intervals(full)


def test_disjoint_extents_intersect_in_nothing():
    top = rle.from_bbox((0, 0, 4, 1), 4, 4)
    bottom = rle.from_bbox((0, 3, 4, 1), 4, 4)
    assert overlap_of(top, bottom) == 0
    assert union_of([bottom, top]) == rle.intervals("4x4:0 4 8 4")


def test_different_grids_raise():
    a, b = "4x3:2 5 5", "3x4:2 5 5"  # same pixel count, different grid
    with pytest.raises(ValueError):
        overlap_of(a, b)
    with pytest.raises(ValueError):
        union_of([a, b])


# ------------------------------------------------- packed bounds

def runs_of(mask: str) -> tuple[list[int], list[int]]:
    """Foreground runs of the decoded grid as flat [start, end) bounds."""
    flat = np.concatenate(([0], rle.decode(mask).ravel().astype(np.int8), [0]))
    steps = np.diff(flat)
    return np.flatnonzero(steps == 1).tolist(), np.flatnonzero(steps == -1).tolist()


def unpacked(iv: rle.Intervals) -> tuple:
    """``iv`` with its bounds as tuples of ints, the layout before packing."""
    return tuple(iv._replace(starts=bounds(iv.starts), ends=bounds(iv.ends)))


@given(mask_sets() | wide_mask_sets())
def test_packed_bounds_are_the_grid_runs(masks):
    for mask in masks:
        iv = rle.intervals(mask)
        starts, ends = runs_of(mask)
        assert (list(bounds(iv.starts)), list(bounds(iv.ends))) == (starts, ends)
        assert len(iv.starts) == len(iv.ends) == 8 * len(starts)


@given(st.data())
def test_packed_intervals_order_as_tuples_of_ints(data):
    # bounds past 255 too, which a little-endian layout would misorder
    width, height = data.draw(grids | st.tuples(st.integers(16, 64), st.integers(16, 48)))
    pair = data.draw(st.lists(masks_on(width, height, max_cuts=6), min_size=2, max_size=2))
    a, b = (rle.intervals(m) for m in pair)
    ta, tb = unpacked(a), unpacked(b)
    assert (a < b, a == b, a > b) == (ta < tb, ta == tb, ta > tb)


@given(mask_sets())
def test_pixel_equal_masks_give_equal_hashable_intervals(masks):
    for mask in masks:
        iv = rle.intervals(mask)
        for same in (rle.intervals(encode(rle.decode(mask))), union_of([mask, mask])):
            assert same == iv and hash(same) == hash(iv)


def test_intervals_are_read_only():
    iv = rle.intervals("4x3:2 5 5")
    with pytest.raises(TypeError):
        iv.ends[0] = 0


@given(
    grids,
    st.tuples(*[st.floats(min_value=-6, max_value=18, allow_nan=False)] * 2),
    st.tuples(*[st.floats(min_value=0, max_value=14, allow_nan=False)] * 2),
)
def test_from_bbox_matches_grid_oracle(grid, xy, wh):
    width, height = grid
    (x, y), (w, h) = xy, wh
    x0, y0 = max(int(round(x)), 0), max(int(round(y)), 0)
    x1, y1 = min(int(round(x + w)), width), min(int(round(y + h)), height)
    mask = np.zeros((height, width), dtype=bool)
    if x1 > x0 and y1 > y0:
        mask[y0:y1, x0:x1] = True
    assert rle.from_bbox((x, y, w, h), width, height) == encode(mask)
