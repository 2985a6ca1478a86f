#!/usr/bin/env python3
"""Generate a raw planar YCbCr clip with a controllable texture pattern.

Useful for exercising the analyzer without real footage:

    python scripts/make_synthetic_clip.py --output clip.yuv \
        --width 176 --height 144 --frames 10 --pattern mixed --seed 7
"""

import argparse
from pathlib import Path

import numpy as np

from perceptqp import Channel, ChromaFormat, Frame, Plane, VideoFormat, plane_dims, write_frame
from perceptqp.yuv import BIT_DEPTHS


def constant(w, h, peak, rng, index):
    return np.full((h, w), peak // 2, dtype=np.int64)


def noise(w, h, peak, rng, index):
    return rng.integers(0, peak + 1, size=(h, w), dtype=np.int64)


def gradient(w, h, peak, rng, index):
    ramp = np.add.outer(np.arange(h), np.arange(w)) + 3 * index
    return (ramp * (peak + 1) // max(w + h, 1)) % (peak + 1)


def mixed(w, h, peak, rng, index):
    """Flat top-left region over a noisy background, drifting per frame."""
    out = noise(w, h, peak, rng, index)
    fw, fh = max(1, w // 2), max(1, h // 2)
    out[0:fh, 0:fw] = (peak // 3 + 5 * index) % (peak + 1)
    return out


PATTERNS = {fn.__name__: fn for fn in (constant, noise, gradient, mixed)}


def synth_frame(fmt, pattern, rng, index):
    planes = []
    for channel in Channel:
        w, h = plane_dims(fmt, channel)
        data = PATTERNS[pattern](w, h, fmt.max_sample, rng, index)
        planes.append(Plane(data.astype(fmt.dtype)))
    return Frame(*planes, format=fmt)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--width", type=int, default=176)
    parser.add_argument("--height", type=int, default=144)
    parser.add_argument("--bit-depth", type=int, choices=BIT_DEPTHS, default=VideoFormat.bit_depth)
    parser.add_argument("--chroma", choices=[c.value for c in ChromaFormat], default=VideoFormat.chroma_format.value)
    parser.add_argument("--frames", type=int, default=10)
    parser.add_argument("--pattern", choices=sorted(PATTERNS), default="mixed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    fmt = VideoFormat(args.width, args.height, args.bit_depth, ChromaFormat(args.chroma))
    rng = np.random.default_rng(args.seed)
    written = 0
    with open(args.output, "wb") as sink:
        for index in range(args.frames):
            written += write_frame(sink, synth_frame(fmt, args.pattern, rng, index))
    print(f"{args.output}: {args.frames} frames, {written} bytes, pattern={args.pattern}")


if __name__ == "__main__":
    main()
