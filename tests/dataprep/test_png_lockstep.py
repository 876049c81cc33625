"""PNG ``decode_batch``: identity with the source images and per-blob
``decode``, errors, and arena (``out=``) delivery.

Every blob is inflated by the table-driven ``deflate.decompress``.  The
192- and 256-blob batches cover the sizes at which a lock-step inflate
walk measured faster (at most ~1.3x), so any batched inflate added there
must keep these pixels and errors.
"""

import numpy as np
import pytest

from repro.dataprep.png import codec as png
from repro.errors import CodecError

_BATCH_SIZES = (192, 256)


def _images(n, h=12, w=10, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2 == 0:  # smooth gradient: match-heavy filter residuals
            base = np.add.outer(
                np.arange(h, dtype=np.uint16) * 3,
                np.arange(w, dtype=np.uint16) * 5,
            )
            img = (base[..., None] + np.arange(3) * 7 + i).astype(np.uint8)
        else:  # noise: literal-heavy streams
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        out.append(img)
    return out


def test_malformed_stream_raises_reference_error():
    blobs = [png.encode(img) for img in _images(8, seed=2)]
    truncated = blobs[3][: len(blobs[3]) // 2]
    with pytest.raises(CodecError) as reference_err:
        png.decode(truncated)
    blobs[3] = truncated
    blobs = blobs * (_BATCH_SIZES[0] // len(blobs))
    with pytest.raises(CodecError) as batch_err:
        png.decode_batch(blobs)
    assert str(batch_err.value) == str(reference_err.value)


@pytest.mark.parametrize("n", _BATCH_SIZES)
def test_codec_decode_batch_matches_sources_and_per_blob_decode(n):
    imgs = _images(n)
    blobs = [png.encode(img) for img in imgs]
    decoded = png.decode_batch(blobs)
    assert len(decoded) == n
    for img, blob, got in zip(imgs, blobs, decoded):
        assert np.array_equal(img, got)
        assert np.array_equal(png.decode(blob), got)


def test_codec_decode_batch_out_arena_delivery():
    n = _BATCH_SIZES[0]
    imgs = _images(n, h=9, w=7, seed=5)
    blobs = [png.encode(img) for img in imgs]
    arena = np.empty((n, 9, 7, 3), dtype=np.uint8)
    returned = png.decode_batch(blobs, out=arena)
    assert returned is arena
    for img, got in zip(imgs, arena):
        assert np.array_equal(img, got)


def test_codec_decode_batch_out_validates_count_and_shape():
    imgs = _images(4, h=9, w=7, seed=6)
    blobs = [png.encode(img) for img in imgs]
    with pytest.raises(CodecError):
        png.decode_batch(blobs, out=np.empty((3, 9, 7, 3), dtype=np.uint8))
    with pytest.raises(CodecError):
        png.decode_batch(blobs, out=np.empty((4, 8, 7, 3), dtype=np.uint8))
