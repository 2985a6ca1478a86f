"""CU grid, per-channel block mapping, quadrant splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perceptqp import (
    Channel,
    ChromaFormat,
    CuRect,
    VideoFormat,
    cb_rect,
    cu_grid,
    grid_dims,
    sub_blocks,
)
from strategies import video_formats


class TestCuGrid:
    def test_128x128_at_64_is_four_cus(self):
        fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
        cus = list(cu_grid(fmt, 64))
        assert [(c.x, c.y) for c in cus] == [(0, 0), (64, 0), (0, 64), (64, 64)]
        assert all(c.clipped_w == 64 and c.clipped_h == 64 for c in cus)

    def test_1080p_at_64_clips_bottom_row(self):
        fmt = VideoFormat(1920, 1080, 8, ChromaFormat.YUV420)
        assert grid_dims(fmt, 64) == (30, 17)
        cus = list(cu_grid(fmt, 64))
        assert len(cus) == 510
        bottom = [c for c in cus if c.y == 1024]
        assert len(bottom) == 30
        # 1080 = 16 * 64 + 56
        assert all(c.clipped_h == 56 and c.clipped_w == 64 for c in bottom)

    def test_raster_order(self):
        fmt = VideoFormat(48, 48, 8, ChromaFormat.YUV444)
        cus = list(cu_grid(fmt, 32))
        assert [(c.x, c.y) for c in cus] == [(0, 0), (32, 0), (0, 32), (32, 32)]
        assert (cus[1].clipped_w, cus[1].clipped_h) == (16, 32)
        assert (cus[3].clipped_w, cus[3].clipped_h) == (16, 16)

    @pytest.mark.parametrize("size", [8, 15, 63, 128, 0])
    def test_unsupported_cu_size_rejected(self, size):
        fmt = VideoFormat(64, 64, 8, ChromaFormat.YUV444)
        with pytest.raises(ValueError):
            list(cu_grid(fmt, size))

    @settings(max_examples=80, deadline=None)
    @given(video_formats(max_dim=200), st.sampled_from([16, 32, 64]))
    def test_grid_tiles_luma_exactly(self, fmt, cu_size):
        cover = np.zeros((fmt.height, fmt.width), dtype=np.int32)
        for cu in cu_grid(fmt, cu_size):
            cover[cu.y : cu.y + cu.clipped_h, cu.x : cu.x + cu.clipped_w] += 1
        assert (cover == 1).all()


class TestCbRect:
    def test_420_first_cu_chroma_halved(self):
        cu = CuRect(0, 0, 64, 64, 64)
        cb = cb_rect(cu, Channel.CB, ChromaFormat.YUV420)
        assert (cb.x, cb.y, cb.w, cb.h) == (0, 0, 32, 32)

    def test_422_offset_cu_keeps_height(self):
        cu = CuRect(64, 0, 64, 64, 64)
        cr = cb_rect(cu, Channel.CR, ChromaFormat.YUV422)
        assert (cr.x, cr.y, cr.w, cr.h) == (32, 0, 32, 64)

    def test_444_is_identity(self):
        cu = CuRect(32, 64, 64, 48, 24)
        cb = cb_rect(cu, Channel.CB, ChromaFormat.YUV444)
        assert (cb.x, cb.y, cb.w, cb.h) == (32, 64, 48, 24)

    def test_luma_never_scaled(self):
        cu = CuRect(64, 64, 64, 40, 56)
        y = cb_rect(cu, Channel.Y, ChromaFormat.YUV420)
        assert (y.x, y.y, y.w, y.h) == (64, 64, 40, 56)

    def test_clipped_extent_rounds_up(self):
        # 420 chroma of a 41-wide clipped CU covers columns 32..52 inclusive
        cu = CuRect(64, 0, 64, 41, 33)
        cb = cb_rect(cu, Channel.CB, ChromaFormat.YUV420)
        assert (cb.w, cb.h) == (21, 17)


class TestSubBlocks:
    def test_even_block_quarters(self):
        cu = CuRect(0, 0, 64, 64, 64)
        parent = cb_rect(cu, Channel.Y, ChromaFormat.YUV420)
        quads = sub_blocks(parent)
        assert [(q.x, q.y, q.w, q.h) for q in quads] == [
            (0, 0, 32, 32),
            (32, 0, 32, 32),
            (0, 32, 32, 32),
            (32, 32, 32, 32),
        ]

    def test_odd_block_splits_ceiling_first(self):
        cu = CuRect(0, 0, 16, 5, 4)
        parent = cb_rect(cu, Channel.Y, ChromaFormat.YUV444)
        quads = sub_blocks(parent)
        assert [(q.w, q.h) for q in quads] == [(3, 2), (2, 2), (3, 2), (2, 2)]
        assert [(q.x, q.y) for q in quads] == [(0, 0), (3, 0), (0, 2), (3, 2)]

    def test_single_sample_block(self):
        cu = CuRect(0, 0, 16, 1, 1)
        parent = cb_rect(cu, Channel.Y, ChromaFormat.YUV444)
        quads = sub_blocks(parent)
        assert [q.empty for q in quads] == [False, True, True, True]
        assert quads[0].area == 1

    def test_single_row_block(self):
        cu = CuRect(0, 0, 16, 6, 1)
        parent = cb_rect(cu, Channel.Y, ChromaFormat.YUV444)
        quads = sub_blocks(parent)
        assert [(q.w, q.h) for q in quads if not q.empty] == [(3, 1), (3, 1)]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_quadrants_tile_parent(self, w, h):
        cu = CuRect(0, 0, 64, w, h)
        parent = cb_rect(cu, Channel.Y, ChromaFormat.YUV444)
        cover = np.zeros((h, w), dtype=np.int32)
        for q in sub_blocks(parent):
            cover[q.y : q.y + q.h, q.x : q.x + q.w] += 1
        assert (cover == 1).all()
        assert sum(q.area for q in sub_blocks(parent)) == w * h

    @settings(max_examples=80, deadline=None)
    @given(video_formats(max_dim=96), st.sampled_from([16, 32, 64]))
    def test_chroma_blocks_tile_chroma_plane(self, fmt, cu_size):
        sx, sy = fmt.chroma_format.sub_x, fmt.chroma_format.sub_y
        cover = np.zeros((fmt.height // sy, fmt.width // sx), dtype=np.int32)
        for cu in cu_grid(fmt, cu_size):
            cb = cb_rect(cu, Channel.CB, fmt.chroma_format)
            cover[cb.y : cb.y + cb.h, cb.x : cb.x + cb.w] += 1
        assert (cover == 1).all()
