"""Seeded synthetic clips for the benchmark.

The generator lives here, not in scripts/, so that an edit to the repository's
own clip script can neither change the benchmark's inputs nor invalidate its
recorded output digests. Every frame uses the "mixed" pattern: a flat
top-left quarter (drifting in level per frame) over uniform noise, so both
the flat and the textured branch of the activity rule run.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def plane_shapes(width: int, height: int, chroma: str) -> list[tuple[int, int]]:
    """(rows, cols) of the Y, Cb and Cr planes for a chroma format."""
    sub_x = 1 if chroma == "444" else 2
    sub_y = 2 if chroma == "420" else 1
    chroma_shape = (height // sub_y, width // sub_x)
    return [(height, width), chroma_shape, chroma_shape]


def storage_dtype(bit_depth: int) -> np.dtype:
    """On-disk sample type: bytes for 8-bit, little-endian words for 10-bit."""
    return np.dtype(np.uint8 if bit_depth == 8 else "<u2")


def mixed_plane(rows: int, cols: int, peak: int, rng: np.random.Generator, index: int) -> np.ndarray:
    out = rng.integers(0, peak + 1, size=(rows, cols), dtype=np.uint16)
    out[: max(1, rows // 2), : max(1, cols // 2)] = (peak // 3 + 5 * index) % (peak + 1)
    return out


def write_clip(
    path: Path, width: int, height: int, chroma: str, bit_depth: int, frames: int, seed: int
) -> None:
    """Write a raw planar clip; the same arguments always give the same bytes.

    The file appears under its final name only once it is complete, so an
    interrupted run never leaves a short clip in the cache.
    """
    peak = (1 << bit_depth) - 1
    dtype = storage_dtype(bit_depth)
    rng = np.random.default_rng(seed)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "wb") as sink:
        for index in range(frames):
            for rows, cols in plane_shapes(width, height, chroma):
                sink.write(mixed_plane(rows, cols, peak, rng, index).astype(dtype).tobytes())
    os.replace(partial, path)
