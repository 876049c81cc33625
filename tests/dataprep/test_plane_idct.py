"""The plane IDCT of the decode's transform stage against its spec.

``_transform`` dequantizes and inverse transforms each plane with
:func:`dct.idct_plane`: one widening multiply, then two matrix
products, the second writing straight into the plane.  The spec is
``quant.dequantize`` → ``dct.idct2`` → ``dct.unblockify``; every result
here must equal it bit for bit (compared as raw float64 words, so even a signed zero counts).
Covered: corpus-like 256² luma and chroma planes, random int32 grids
with odd block spans cut at offsets as a crop window's MCU span is, a
stacked chunk of several images, 4:4:4 frames, and whole decodes (full
and windowed) with the spec transform patched in.
"""

import numpy as np
import pytest

from repro.dataprep.jpeg import codec, dct, decode_batch, encode_batch, quant
from repro.dataprep.jpeg.codec import Window, decode_reference
from repro.datasets.imagenet import synthesize_image


def _spec(grid, table):
    r, c = grid.shape[:2]
    coeffs = quant.dequantize(grid, table).reshape(-1, 8, 8)
    return dct.unblockify(dct.idct2(coeffs), (8 * r, 8 * c))


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _frames(size, subsample, count, seed=3):
    rng = np.random.default_rng([seed, size])
    images = [
        synthesize_image(rng, size, size, int(rng.integers(0, 1000)))
        for _ in range(count)
    ]
    blobs = encode_batch(images, quality=80, subsample=subsample)
    return blobs, [codec._parse_frame(b) for b in blobs]


def _grids(frame):
    """A frame's quantized blocks per plane as (rows/8, cols/8, 8, 8)
    grids, with the plane's quantization table."""
    geometry = codec._plane_geometry(frame.subsample, frame.h, frame.w)
    blocks = codec._entropy_decode_planes(
        frame, geometry, codec._decode_plane_reference
    )
    tables = [
        quant.scaled_table(base, frame.quality)
        for base in (quant.LUMA_BASE, quant.CHROMA_BASE, quant.CHROMA_BASE)
    ]
    return [
        (b.reshape(shape[0] // 8, shape[1] // 8, 8, 8), t)
        for b, shape, t in zip(blocks, geometry.plane_shapes, tables)
    ]


@pytest.mark.parametrize("subsample", [True, False])
def test_corpus_planes_equal_the_spec(subsample):
    """256² corpus-like frames, as perfbench's corpus: luma and both
    chroma planes, 4:2:0 (128² chroma) and 4:4:4."""
    _, frames = _frames(256, subsample, 2)
    for frame in frames:
        for grid, table in _grids(frame):
            _assert_bits_equal(dct.idct_plane(grid, table), _spec(grid, table))


def test_random_int32_grids_with_odd_spans_and_offsets():
    """Full-range-ish random coefficients, odd block spans, and grids cut
    at a row and column offset (non-contiguous int32 views, as
    ``_transform`` picks a window's MCU span)."""
    rng = np.random.default_rng(11)
    table = quant.scaled_table(quant.CHROMA_BASE, 37)
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 12, 2))
        top, left = (int(v) for v in rng.integers(0, 4, 2))
        full = rng.integers(
            -(2**15), 2**15, size=(rows + top + 1, cols + left + 2, 8, 8),
            dtype=np.int32,
        )
        grid = full[top : top + rows, left : left + cols]
        _assert_bits_equal(dct.idct_plane(grid, table), _spec(grid, table))


def test_stacked_chunk_of_several_images():
    """A transform chunk of n > 1 images stacks their window spans into
    one tall grid (64² frames: ``transform_chunk_images`` is 16)."""
    assert codec.transform_chunk_images(64, 64) > 1
    _, frames = _frames(64, True, 5)
    per_image = [_grids(f) for f in frames]
    for p in range(3):
        table = per_image[0][p][1]
        stacked = np.concatenate(
            [grids[p][0][1:, :3] for grids in per_image]
        )
        assert stacked.shape[0] == 5 * (per_image[0][p][0].shape[0] - 1)
        _assert_bits_equal(dct.idct_plane(stacked, table), _spec(stacked, table))


# (h, w, subsample, batch): 256² frames (chunk 1) in 4:2:0 and 4:4:4,
# and small 4:2:0 and 4:4:4 frames whose transform chunks stack images.
DECODES = [
    (256, 256, True, 3),
    (256, 256, False, 2),
    (64, 64, True, 18),
    (40, 56, False, 9),
]


@pytest.mark.parametrize("h, w, subsample, batch", DECODES)
def test_decode_equals_the_spec_transform(h, w, subsample, batch, monkeypatch):
    """Whole decodes, full-frame and windowed (odd offsets, flips): the
    plane IDCT gives the pixels the spec IDCT gives, and ``decode_batch``
    still equals ``decode_reference``."""
    rng = np.random.default_rng([h, w, batch])
    images = [
        synthesize_image(rng, h, w, int(rng.integers(0, 1000)))
        for _ in range(batch)
    ]
    blobs = encode_batch(images, quality=75, subsample=subsample)
    oh, ow = h - 5, w - 3
    windows = [
        Window(k % 5, (2 * k + 1) % 3, oh, ow, flip=bool(k % 2))
        for k in range(batch)
    ]
    full = decode_batch(blobs)
    cut = decode_batch(blobs, windows=windows)
    for blob, image, win, got in zip(blobs, full, windows, cut):
        ref = decode_reference(blob)
        assert np.array_equal(image, ref)
        want = ref[win.top : win.top + oh, win.left : win.left + ow]
        assert np.array_equal(got, want[:, ::-1] if win.flip else want)
    monkeypatch.setattr(dct, "idct_plane", _spec)
    for got, want in zip(decode_batch(blobs), full):
        assert np.array_equal(got, want)
    for got, want in zip(decode_batch(blobs, windows=windows), cut):
        assert np.array_equal(got, want)
