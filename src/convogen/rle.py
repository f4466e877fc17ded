"""Run-length encoded binary masks over a row-major pixel grid.

Encoding: ``"{w}x{h}:" `` followed by space-separated run lengths that
alternate background/foreground, starting with background. Runs must sum
to ``w * h``, so grid dimensions are always checkable.

Areas, intersections and unions are computed on the runs themselves, as
sorted foreground intervals in flat (row-major) index space held in
tuples of ints; no ``height x width`` grid is built for them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, NamedTuple


def _parse(rle: str) -> tuple[int, int, list[int]]:
    header, sep, body = rle.partition(":")
    if not sep:
        raise ValueError(f"RLE missing dimension header: {rle[:40]!r}")
    try:
        w_str, h_str = header.lower().split("x")
        width, height = int(w_str), int(h_str)
    except ValueError as exc:
        raise ValueError(f"bad RLE header {header!r}") from exc
    runs = [int(tok) for tok in body.split()]
    if any(r < 0 for r in runs):
        raise ValueError("negative run length")
    if sum(runs) != width * height:
        raise ValueError(
            f"RLE runs sum to {sum(runs)}, expected {width}x{height}={width * height}"
        )
    return width, height, runs


class Intervals(NamedTuple):
    """Foreground of one mask as sorted, disjoint, non-touching half-open
    intervals ``[starts[k], ends[k])`` of flat pixel indices, and ``area``,
    the mask's foreground pixel count."""

    width: int
    height: int
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    area: int


@lru_cache(maxsize=1024)
def intervals(rle: str) -> Intervals:
    """Parse a mask once into its foreground intervals.

    Results are cached; they are tuples, so they cannot be mutated.
    Zero-length runs, a leading foreground run and a trailing background
    run of 0 are all accepted, and two masks with the same pixels give
    equal intervals.
    """
    width, height, runs = _parse(rle)
    edges = list(accumulate(runs, initial=0))
    starts: list[int] = []
    ends: list[int] = []
    for start, end in zip(edges[1::2], edges[2::2]):  # the foreground runs
        if start == end:
            continue
        if ends and ends[-1] == start:  # only a zero-length background run between
            ends[-1] = end
        else:
            starts.append(start)
            ends.append(end)
    area = sum(end - start for start, end in zip(starts, ends))
    return Intervals(width, height, tuple(starts), tuple(ends), area)


def _same_grid(a: Intervals, b: Intervals) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"masks come from different grids: {a.width}x{a.height} and {b.width}x{b.height}"
        )


def foreground_area(rle: str) -> int:
    """Number of foreground pixels, without decoding the full grid."""
    return intervals(rle).area


def intersection_area(a: str, b: str) -> int:
    """Pixels in the foreground of both masks; ``ValueError`` across grids."""
    ia, ib = intervals(a), intervals(b)
    _same_grid(ia, ib)
    if not ia.ends or not ib.ends:
        return 0
    lo = max(ia.starts[0], ib.starts[0])
    hi = min(ia.ends[-1], ib.ends[-1])
    if lo >= hi:
        return 0  # the flat extents are disjoint
    starts_a, ends_a, starts_b, ends_b = ia.starts, ia.ends, ib.starts, ib.ends
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


def union(rles: list[str]) -> str:
    """Canonical encoding of the masks' union: no zero-length run but a
    leading background run of 0, and no trailing background run of 0.

    Raises ``ValueError`` when the masks come from different grids.
    """
    parsed = [intervals(r) for r in rles]
    for iv in parsed[1:]:
        _same_grid(parsed[0], iv)
    starts: list[int] = []
    ends: list[int] = []
    for start, end in sorted(chain.from_iterable(zip(iv.starts, iv.ends) for iv in parsed)):
        if ends and start <= ends[-1]:  # overlaps or touches the last one: merge
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(start)
            ends.append(end)
    return _emit(parsed[0].width, parsed[0].height, starts, ends)


def _emit(width: int, height: int, starts: Iterable[int], ends: Iterable[int]) -> str:
    """Encode sorted, disjoint, non-touching foreground intervals."""
    runs: list[int] = []
    pos = 0
    for start, end in zip(starts, ends):
        runs += (start - pos, end - start)
        pos = end
    if width * height > pos:
        runs.append(width * height - pos)
    return f"{width}x{height}:" + " ".join(map(str, runs))


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
