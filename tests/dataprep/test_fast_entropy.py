"""Golden-bitstream equivalence of the vectorized JPEG fast paths.

The fast entropy encoder must emit byte-identical streams to the
symbol-at-a-time reference (``encode_reference``), and the table-driven
fast decoder must reconstruct identical pixels (``decode_reference``),
across shapes (including odd, non-multiple-of-8 and non-multiple-of-16
dims), qualities, both subsampling modes, and batch sizes on both sides
of the lock-step crossover and of a transform chunk boundary.
"""

import numpy as np
import pytest

from repro.dataprep.jpeg import codec, decode_batch, encode_batch
from repro.dataprep.jpeg.codec import decode_reference, encode_reference
from repro.dataprep.jpeg.huffman import BitWriter, pack_bits


def _image(shape, seed=0):
    rng = np.random.default_rng(seed)
    h, w, _ = shape
    gx = np.linspace(0, 200, w)
    img = gx[None, :, None] + rng.normal(0, 20, shape)
    return np.clip(img, 0, 255).astype(np.uint8)


SHAPES = [(8, 8, 3), (16, 16, 3), (17, 23, 3), (9, 130, 3), (33, 65, 3)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("quality", [35, 75, 100])
@pytest.mark.parametrize("subsample", [True, False])
def test_fast_encode_bitstream_identical(shape, quality, subsample):
    img = _image(shape)
    assert codec.encode(img, quality=quality, subsample=subsample) == (
        encode_reference(img, quality=quality, subsample=subsample)
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("subsample", [True, False])
def test_fast_decode_pixels_identical(shape, subsample):
    img = _image(shape, seed=3)
    blob = codec.encode(img, quality=75, subsample=subsample)
    fast = codec.decode(blob)
    ref = decode_reference(blob)
    assert fast.dtype == ref.dtype == np.uint8
    assert np.array_equal(fast, ref)
    assert np.array_equal(decode_batch([blob])[0], ref)
    arena = np.empty((1,) + shape, dtype=np.uint8)
    assert decode_batch([blob], out=arena) is arena
    assert np.array_equal(arena[0], ref)


# (h, w, subsample): two geometries whose lock-step crossover is 6 images
# and transform chunk 1 (4:2:0 and a 4:4:4 size that is not a multiple of
# 16), two small ones whose crossover is above most of the batches, and
# one whose 5-image transform chunk puts chunk edges inside the batches.
BATCH_GEOMETRIES = [
    (241, 255, True),
    (250, 262, False),
    (9, 130, True),
    (17, 23, False),
    (100, 120, True),
]
#: The transform chunk each pinned geometry gets (65,536-pixel budget).
TRANSFORM_CHUNKS = {(241, 255): 1, (250, 262): 1, (100, 120): 5}
_REFERENCES = {}


def _distinct_blobs(h, w, subsample):
    """Three distinct blobs of one geometry and their reference decodes."""
    key = (h, w, subsample)
    if key not in _REFERENCES:
        blobs = encode_batch(
            [_image((h, w, 3), seed=s) for s in range(3)],
            quality=80,
            subsample=subsample,
        )
        _REFERENCES[key] = blobs, [decode_reference(b) for b in blobs]
    return _REFERENCES[key]


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 6, 7, 33, 36])
@pytest.mark.parametrize("geometry", BATCH_GEOMETRIES)
def test_decode_batch_any_size_matches_reference(geometry, batch):
    h, w, subsample = geometry
    blobs, refs = _distinct_blobs(h, w, subsample)
    if h * w > 60_000:
        plane = codec._plane_geometry(subsample, h, w).luma_shape
        luma_blocks = (plane[0] // 8) * (plane[1] // 8)
        assert codec.lockstep_min_images(luma_blocks) == 2
    if (h, w) in TRANSFORM_CHUNKS:
        assert codec.transform_chunk_images(h, w) == TRANSFORM_CHUNKS[(h, w)]
    for blob, ref in zip(blobs, refs):
        assert np.array_equal(codec.decode(blob), ref)
    order = [i % 3 for i in range(batch)]
    datas = [blobs[i] for i in order]
    decoded = decode_batch(datas)
    arena = np.empty((batch, h, w, 3), dtype=np.uint8)
    assert decode_batch(datas, out=arena) is arena
    for k, i in enumerate(order):
        assert np.array_equal(decoded[k], refs[i])
        assert np.array_equal(arena[k], refs[i])


def test_lockstep_crossovers_are_the_measured_ones():
    """The group walk pays from 2 images of 256x256, 7 of 128x128 and 13
    of 64x64 (the table in ``codec``); sizes between interpolate, and
    no plane size lowers the crossover as the plane shrinks."""
    pinned = {
        side: codec.lockstep_min_images((side // 8) ** 2)
        for side in (256, 128, 64)
    }
    assert pinned == {256: 2, 128: 7, 64: 13}
    assert codec.lockstep_min_images(24 * 24) == 3  # 192x192
    assert codec.lockstep_min_images(12 * 12) == 9  # 96x96
    crossovers = [codec.lockstep_min_images(b) for b in range(1, 4097)]
    assert crossovers == sorted(crossovers, reverse=True)
    assert min(crossovers) == 2


def test_pack_bits_matches_bitwriter():
    rng = np.random.default_rng(1)
    nbits = rng.integers(0, 17, 500)
    values = np.array([int(rng.integers(0, 1 << n)) if n else 0 for n in nbits])
    writer = BitWriter()
    for v, n in zip(values, nbits):
        writer.write(int(v), int(n))
    assert pack_bits(values, nbits) == writer.getvalue()


def test_encode_batch_matches_per_image_encode():
    images = [_image((24, 16, 3), seed=i) for i in range(5)]
    assert encode_batch(images, quality=80) == [
        encode_reference(i, quality=80) for i in images
    ]


def test_encode_batch_mixed_shapes_falls_back():
    images = [_image((16, 16, 3), seed=0), _image((24, 8, 3), seed=1)]
    blobs = encode_batch(images, quality=75)
    for blob, img in zip(blobs, images):
        assert blob == encode_reference(img, quality=75)


def test_decode_batch_roundtrip():
    # Lossy codec: exact pixel equality holds against the reference
    # decode of the same blob, not the original image.
    images = [_image((16, 24, 3), seed=i) for i in range(4)]
    blobs = encode_batch(images, quality=90)
    decoded = decode_batch(blobs)
    refs = [decode_reference(b) for b in blobs]
    for out, img, ref in zip(decoded, images, refs):
        assert out.shape == img.shape
        assert np.array_equal(out, ref)
