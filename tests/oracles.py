"""Grid-based test oracles for the interval arithmetic in ``convogen.rle``."""

import struct

import numpy as np


def encode(mask: np.ndarray) -> str:
    """Encode a 2-D (height, width) binary array in canonical form."""
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


def bounds(packed: bytes) -> tuple[int, ...]:
    """Interval bounds as ``rle.Intervals`` packs them: big-endian 8-byte ints."""
    return struct.unpack(">%dq" % (len(packed) // 8), packed)


def grid(iv) -> np.ndarray:
    """Paint parsed ``rle.Intervals`` onto a (height, width) bool array."""
    flat = np.zeros(iv.width * iv.height, dtype=bool)
    for start, end in zip(bounds(iv.starts), bounds(iv.ends)):
        flat[start:end] = True
    return flat.reshape(iv.height, iv.width)
