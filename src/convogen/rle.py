"""Run-length encoded binary masks over a row-major pixel grid.

Encoding: ``"{w}x{h}:" `` followed by space-separated run lengths that
alternate background/foreground, starting with background. Runs must sum
to ``w * h``, so grid dimensions are always checkable.

Areas, intersections and unions are computed on the runs themselves, as
sorted foreground intervals in flat (row-major) index space, each bound
packed as a big-endian 8-byte int (a tuple of ints takes about 36) whose
bytes compare as the int does; no ``height x width`` grid is built. Each
parsed mask also keeps its pixel extent, so a caller can rule a pair out
by extent before it walks any runs, as pycocotools' ``rleIou`` does by box.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from operator import lt, mod, sub
from typing import Iterable, NamedTuple, Sequence


def _parse(rle: str) -> tuple[int, int, list[int]]:
    header, sep, body = rle.partition(":")
    if not sep:
        raise ValueError(f"RLE missing dimension header: {rle[:40]!r}")
    try:
        w_str, h_str = header.lower().split("x")
        width, height = int(w_str), int(h_str)
    except ValueError as exc:
        raise ValueError(f"bad RLE header {header!r}") from exc
    runs = list(map(int, body.split()))
    if runs and min(runs) < 0:
        raise ValueError("negative run length")
    if sum(runs) != width * height:
        raise ValueError(
            f"RLE runs sum to {sum(runs)}, expected {width}x{height}={width * height}"
        )
    return width, height, runs


def _packed(values: Iterable[int]) -> bytes:
    """Bounds of 0 or more as big-endian 8-byte ints: the bytes compare as the ints do."""
    out = array("q", values)
    if sys.byteorder == "little":
        out.byteswap()
    return out.tobytes()


def _ints(packed: bytes) -> array:
    """The bounds that ``_packed`` wrote."""
    out = array("q", packed)
    if sys.byteorder == "little":
        out.byteswap()
    return out


class Intervals(NamedTuple):
    """Foreground of one mask as sorted, disjoint, non-touching half-open
    intervals ``[starts[k], ends[k])`` of flat pixel indices, each packed by
    ``_packed`` (``b""`` for an empty mask); ``area``, the
    mask's foreground pixel count; and its pixel extent ``[x0, x1) x [y0, y1)``,
    the smallest box that holds every foreground pixel (all zeros when the
    mask is empty)."""

    width: int
    height: int
    starts: bytes
    ends: bytes
    area: int
    x0: int
    y0: int
    x1: int
    y1: int


@lru_cache(maxsize=1024)
def intervals(rle: str) -> Intervals:
    """Parse a mask once into its foreground intervals and pixel extent.

    Results are cached; they hold only ints and bytes, so they cannot be mutated.
    Zero-length runs, a leading foreground run and a trailing background
    run of 0 are all accepted, and two masks with the same pixels give
    equal intervals.
    """
    width, height, runs = _parse(rle)
    edges = list(accumulate(runs, initial=0))
    count = len(runs)
    starts = edges[1:count:2]  # the foreground runs
    ends = edges[2:count + 1:2]
    if 0 in runs[1:]:  # an empty foreground run, or an empty background run between two
        joined_starts: list[int] = []
        joined_ends: list[int] = []
        for start, end in zip(starts, ends):
            if start == end:
                continue
            if joined_ends and joined_ends[-1] == start:
                joined_ends[-1] = end
            else:
                joined_starts.append(start)
                joined_ends.append(end)
        starts, ends = joined_starts, joined_ends
    if not starts:
        return Intervals(width, height, b"", b"", 0, 0, 0, 0, 0)
    area = sum(ends) - sum(starts)
    # the extent's columns by C-level maps, not a Python loop per interval
    start_cols = list(map(mod, starts, repeat(width)))
    end_cols = list(map(mod, ends, repeat(width)))  # 0: the interval ends its row
    row_ends = end_cols.count(0)
    # an interval within one row spans (end column or width) - start column
    # pixels; one that crosses a row boundary spans more, and covers the last
    # and the first column, so the extent is then the full width
    if area == sum(end_cols) + width * row_ends - sum(start_cols):
        x0, x1 = min(start_cols), width if row_ends else max(end_cols)
    else:
        x0, x1 = 0, width
    return Intervals(width, height, _packed(starts), _packed(ends), area,
                     x0, starts[0] // width, x1, (ends[-1] - 1) // width + 1)


def same_grid(a: Intervals, b: Intervals) -> None:
    """Raise ``ValueError`` unless both masks lie on one grid."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"masks come from different grids: {a.width}x{a.height} and {b.width}x{b.height}"
        )


def foreground_area(rle: str) -> int:
    """Number of foreground pixels, without decoding the full grid."""
    return intervals(rle).area


def overlap(ia: Intervals, ib: Intervals) -> int:
    """Pixels in the foreground of both masks; ``ValueError`` across grids."""
    same_grid(ia, ib)
    if not ia.ends or not ib.ends:
        return 0
    starts_a, ends_a, starts_b, ends_b = map(_ints, (ia.starts, ia.ends, ib.starts, ib.ends))
    lo = max(starts_a[0], starts_b[0])
    hi = min(ends_a[-1], ends_b[-1])
    if lo >= hi:
        return 0  # the flat extents are disjoint
    # only intervals that end past lo and start before hi can overlap
    i, j = bisect_right(ends_a, lo), bisect_right(ends_b, lo)
    stop_i, stop_j = bisect_left(starts_a, hi), bisect_left(starts_b, hi)
    total = 0
    # max and min written inline: this loop is the hot path of mask overlap
    while i < stop_i and j < stop_j:
        end_a, end_b = ends_a[i], ends_b[j]
        if end_a <= end_b:
            start = starts_b[j]
            if start < end_a:
                total += end_a - (start if start > starts_a[i] else starts_a[i])
            i += 1
        else:
            start = starts_a[i]
            if start < end_b:
                total += end_b - (start if start > starts_b[j] else starts_b[j])
            j += 1
    return total


def union(parsed: Sequence[Intervals]) -> Intervals:
    """The masks' union; ``ValueError`` when they come from different grids."""
    for iv in parsed[1:]:
        same_grid(parsed[0], iv)
    present = [iv for iv in parsed if iv.starts]
    if not present:
        return parsed[0]
    # with starts and ends sorted apart, the union has a gap after the k-th
    # end exactly where it comes before the (k+1)-th start
    starts = sorted(chain.from_iterable(_ints(iv.starts) for iv in present))
    ends = sorted(chain.from_iterable(_ints(iv.ends) for iv in present))
    gaps = list(map(lt, ends, islice(starts, 1, None)))
    starts = (starts[0], *compress(islice(starts, 1, None), gaps))
    ends = (*compress(ends, gaps), ends[-1])
    return Intervals(
        parsed[0].width, parsed[0].height, _packed(starts), _packed(ends), sum(ends) - sum(starts),
        min(iv.x0 for iv in present), min(iv.y0 for iv in present),
        max(iv.x1 for iv in present), max(iv.y1 for iv in present),
    )


def _emit(width: int, height: int, starts: Iterable[int], ends: Iterable[int]) -> str:
    """Encode sorted, disjoint, non-touching foreground intervals."""
    starts, ends = tuple(starts), tuple(ends)
    gaps = map(sub, starts, chain((0,), ends))  # background before each interval
    runs = list(chain.from_iterable(zip(gaps, map(sub, ends, starts))))
    tail = width * height - (ends[-1] if ends else 0)
    if tail:
        runs.append(tail)
    return f"{width}x{height}:" + " ".join(["%d"] * len(runs)) % tuple(runs)


@lru_cache(maxsize=1024)
def decode(rle: str):
    """Decode to a read-only (height, width) numpy bool array.

    Results are cached; callers must not mutate the returned array. No
    run calls this, so numpy is imported only here.
    """
    import numpy as np

    width, height, runs = _parse(rle)
    flat = np.zeros(width * height, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos:pos + run] = True
        pos += run
        value = not value
    out = flat.reshape(height, width)
    out.flags.writeable = False
    return out


def from_bbox(bbox: tuple[float, float, float, float], width: int, height: int) -> str:
    """Rasterize a pixel bbox (x, y, w, h) into an RLE rectangle mask."""
    x, y, w, h = bbox
    x0 = max(int(round(x)), 0)
    y0 = max(int(round(y)), 0)
    x1 = min(int(round(x + w)), width)
    y1 = min(int(round(y + h)), height)
    if x1 <= x0 or y1 <= y0:
        return _emit(width, height, (), ())
    if x1 - x0 == width:  # full rows touch: one interval
        return _emit(width, height, (y0 * width,), (y1 * width,))
    return _emit(width, height, range(y0 * width + x0, y1 * width, width),
                 range(y0 * width + x1, y1 * width + x1, width))
