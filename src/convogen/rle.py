"""Run-length encoded binary masks over a row-major pixel grid.

Encoding: ``"{w}x{h}:" `` followed by space-separated run lengths that
alternate background/foreground, starting with background. Runs must sum
to ``w * h``, so grid dimensions are always checkable.

Areas, intersections and unions are computed on the runs themselves, as
sorted foreground intervals in flat (row-major) index space; no
``height x width`` grid is built for them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


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
    intervals ``[starts[k], ends[k])`` of flat pixel indices.

    ``starts`` carries one extra trailing entry, the grid size, as a
    sentinel; ``covered[k]`` is the foreground pixel count of intervals
    ``0..k-1``, so ``covered[-1]`` is the mask's area.
    """

    width: int
    height: int
    starts: np.ndarray
    ends: np.ndarray
    covered: np.ndarray

    @property
    def area(self) -> int:
        return int(self.covered[-1])


@lru_cache(maxsize=1024)
def intervals(rle: str) -> Intervals:
    """Parse a mask once into its foreground intervals.

    Results are cached; the arrays are read-only. Zero-length runs, a
    leading foreground run and a trailing background run of 0 are all
    accepted, and two masks with the same pixels give equal intervals.
    """
    width, height, runs = _parse(rle)
    ends = np.cumsum(np.asarray(runs, dtype=np.int64))[1::2]
    starts = ends - np.asarray(runs[1::2], dtype=np.int64)
    keep = starts < ends
    starts, ends = starts[keep], ends[keep]
    if len(starts) > 1:  # join foreground runs split by a zero-length background run
        gap = starts[1:] != ends[:-1]
        starts = starts[np.concatenate(([True], gap))]
        ends = ends[np.concatenate((gap, [True]))]
    covered = np.concatenate(([0], np.cumsum(ends - starts)))
    out = Intervals(width, height, np.append(starts, width * height), ends, covered)
    for arr in out[2:]:
        arr.flags.writeable = False
    return out


def _same_grid(a: Intervals, b: Intervals) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"masks come from different grids: {a.width}x{a.height} and {b.width}x{b.height}"
        )


def foreground_area(rle: str) -> int:
    """Number of foreground pixels, without decoding the full grid."""
    return intervals(rle).area


def _covered_before(iv: Intervals, x: np.ndarray) -> np.ndarray:
    """Foreground pixels of ``iv`` at flat indices below each of ``x``."""
    k = np.searchsorted(iv.ends, x, side="right")  # intervals wholly below x
    return iv.covered[k] + np.maximum(x - iv.starts[k], 0)


def intersection_area(a: str, b: str) -> int:
    """Pixels in the foreground of both masks; ``ValueError`` across grids."""
    ia, ib = intervals(a), intervals(b)
    _same_grid(ia, ib)
    if not len(ia.ends) or not len(ib.ends):
        return 0
    if ia.ends[-1] <= ib.starts[0] or ib.ends[-1] <= ia.starts[0]:
        return 0  # the flat extents are disjoint
    below_end = _covered_before(ib, ia.ends)
    below_start = _covered_before(ib, ia.starts[:-1])
    return int((below_end - below_start).sum())


def union(rles: list[str]) -> str:
    """Canonical encoding (as ``encode`` writes it) of the masks' union.

    Raises ``ValueError`` when the masks come from different grids.
    """
    parsed = [intervals(r) for r in rles]
    for iv in parsed[1:]:
        _same_grid(parsed[0], iv)
    width, height = parsed[0].width, parsed[0].height
    starts = np.concatenate([iv.starts[:-1] for iv in parsed])
    ends = np.concatenate([iv.ends for iv in parsed])
    order = np.argsort(starts)
    starts, reach = starts[order], np.maximum.accumulate(ends[order])
    # an interval opens where a start lies past every end before it
    fresh = np.ones(len(starts), dtype=bool)
    fresh[1:] = starts[1:] > reach[:-1]
    return _emit(width, height, starts[fresh], reach[np.roll(fresh, -1)])


def _emit(width: int, height: int, starts: np.ndarray, ends: np.ndarray) -> str:
    """Encode sorted, disjoint, non-touching foreground intervals."""
    runs = np.empty(2 * len(starts), dtype=np.int64)
    runs[0::2] = starts - np.concatenate(([0], ends[:-1]))
    runs[1::2] = ends - starts
    tail = width * height - (int(ends[-1]) if len(ends) else 0)
    body = runs.tolist() + ([tail] if tail else [])
    return f"{width}x{height}:" + " ".join(str(r) for r in body)


def encode(mask: np.ndarray) -> str:
    """Encode a 2-D (height, width) binary array."""
    if mask.ndim != 2:
        raise ValueError(f"expected 2-D mask, got shape {mask.shape}")
    height, width = mask.shape
    flat = np.asarray(mask, dtype=bool).ravel()
    changes = np.flatnonzero(np.diff(flat.astype(np.int8)))
    edges = np.concatenate(([0], changes + 1, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0]:
        # runs always start with a background count
        runs = [0] + runs
    return f"{width}x{height}:" + " ".join(str(r) for r in runs)


@lru_cache(maxsize=1024)
def decode(rle: str) -> np.ndarray:
    """Decode to a read-only (height, width) bool array.

    Results are cached; callers must not mutate the returned array.
    """
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
        return _emit(width, height, np.empty(0, np.int64), np.empty(0, np.int64))
    starts = np.arange(y0, y1, dtype=np.int64) * width + x0
    ends = starts + (x1 - x0)
    if x1 - x0 == width:  # full rows touch: one interval
        starts, ends = starts[:1], ends[-1:]
    return _emit(width, height, starts, ends)
