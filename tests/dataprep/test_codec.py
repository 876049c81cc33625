"""End-to-end tests for the JPEG codec."""

import numpy as np
import pytest

from repro.dataprep.jpeg import decode, encode
from repro.errors import CodecError


def test_roundtrip_shape_and_dtype(smooth_image):
    out = decode(encode(smooth_image))
    assert out.shape == smooth_image.shape
    assert out.dtype == np.uint8


def test_lossy_error_is_bounded(smooth_image):
    out = decode(encode(smooth_image, quality=90))
    err = np.abs(out.astype(int) - smooth_image.astype(int))
    assert err.mean() < 10
    assert err.max() < 70


def test_higher_quality_lower_error(smooth_image):
    errs = []
    for quality in (25, 60, 95):
        out = decode(encode(smooth_image, quality=quality))
        errs.append(np.abs(out.astype(float) - smooth_image).mean())
    assert errs[0] > errs[1] > errs[2]


def test_compression_actually_compresses(smooth_image):
    data = encode(smooth_image, quality=75)
    assert len(data) < smooth_image.nbytes / 3


def test_higher_quality_bigger_stream(smooth_image):
    small = len(encode(smooth_image, quality=30))
    big = len(encode(smooth_image, quality=95))
    assert big > small


def test_flat_image_nearly_lossless():
    flat = np.full((16, 16, 3), 77, dtype=np.uint8)
    out = decode(encode(flat, quality=95))
    assert np.abs(out.astype(int) - 77).max() <= 2


def test_odd_dimensions_roundtrip(rng):
    img = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
    out = decode(encode(img, quality=50))
    assert out.shape == img.shape


def test_tiny_image(rng):
    img = rng.integers(0, 256, (1, 1, 3), dtype=np.uint8)
    out = decode(encode(img))
    assert out.shape == (1, 1, 3)


def test_no_subsampling_mode(smooth_image):
    out = decode(encode(smooth_image, quality=90, subsample=False))
    assert out.shape == smooth_image.shape
    # 4:4:4 at the same quality is at least as accurate on chroma-rich data.
    sub = decode(encode(smooth_image, quality=90, subsample=True))
    err_444 = np.abs(out.astype(float) - smooth_image).mean()
    err_420 = np.abs(sub.astype(float) - smooth_image).mean()
    assert err_444 <= err_420 + 0.5


def test_input_validation():
    with pytest.raises(CodecError):
        encode(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(CodecError):
        encode(np.zeros((4, 4, 3), dtype=np.float32))
    with pytest.raises(CodecError):
        decode(b"not a jpeg stream")


def test_deterministic_encoding(smooth_image):
    assert encode(smooth_image) == encode(smooth_image)
