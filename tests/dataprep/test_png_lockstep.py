"""Lock-step PNG inflate: identity with the per-stream path, errors,
and arena (``out=``) delivery.

The deflate lock-step walk only engages at its measured crossover
(``_LOCKSTEP_MIN_STREAMS``); the stream-level tests call the walk
(``_decompress_lockstep``) directly so it is exercised on small
batches, and the codec-level tests decode batches on both sides of the
crossover.
"""

import numpy as np
import pytest

from repro.dataprep.png import codec as png
from repro.dataprep.png import deflate
from repro.errors import CodecError


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


def _streams(n, seed=0):
    rng = np.random.default_rng(seed)
    blobs = []
    for i in range(n):
        if i % 3 == 0:
            raw = bytes(rng.integers(0, 256, 200 + i, dtype=np.uint8))
        else:  # repetitive payload: exercises the match phases
            raw = (b"abcdef" * 40 + bytes([i]))[: 180 + i]
        blobs.append(deflate.compress(raw))
    return blobs


def _lockstep(blobs):
    """The lock-step walk ``decompress_batch`` takes at its crossover."""
    return deflate._decompress_lockstep(
        blobs, [deflate._parse_stream(b) for b in blobs]
    )


def test_lockstep_inflate_identity_above_threshold():
    blobs = _streams(12)
    reference = [deflate.decompress(b) for b in blobs]
    assert _lockstep(blobs) == reference


def test_below_threshold_uses_per_stream_path_identically():
    blobs = _streams(6, seed=4)
    reference = [deflate.decompress(b) for b in blobs]
    # The default threshold (192) routes this small batch through the
    # per-stream loop with identical bytes.
    assert deflate.decompress_batch(blobs) == reference


def test_malformed_stream_raises_reference_error():
    blobs = _streams(8, seed=2)
    truncated = blobs[3][: len(blobs[3]) // 2]
    with pytest.raises(CodecError) as reference_err:
        deflate.decompress(truncated)
    blobs[3] = truncated
    # Enough streams to cross the lock-step threshold.
    blobs = blobs * (deflate._LOCKSTEP_MIN_STREAMS // len(blobs))
    with pytest.raises(CodecError) as batch_err:
        deflate.decompress_batch(blobs)
    assert str(batch_err.value) == str(reference_err.value)


def test_codec_decode_batch_identity_both_regimes():
    for n in (10, deflate._LOCKSTEP_MIN_STREAMS):
        imgs = _images(n)
        blobs = [png.encode(img) for img in imgs]
        decoded = png.decode_batch(blobs)
        for img, got in zip(imgs, decoded):
            assert np.array_equal(img, got)


def test_codec_decode_batch_out_arena_delivery():
    n = deflate._LOCKSTEP_MIN_STREAMS
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
