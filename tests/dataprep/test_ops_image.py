"""Tests for the image preparation operations."""

import math

import numpy as np
import pytest

from repro.dataprep.jpeg import encode
from repro.dataprep.ops_image import (
    CastToFloat,
    DecodeJpeg,
    GaussianNoise,
    Mirror,
    RandomCrop,
    image_pipeline,
    noise_table,
)
from repro.dataprep.pipeline import SampleSpec, spawn_rngs
from repro.errors import DataprepError


def test_decode_executes(smooth_image, rng):
    data = encode(smooth_image, quality=90)
    out = DecodeJpeg().apply(data, rng)
    assert out.shape == smooth_image.shape
    assert out.dtype == np.uint8


def test_decode_rejects_arrays(rng):
    with pytest.raises(DataprepError):
        DecodeJpeg().apply(np.zeros((4, 4, 3), dtype=np.uint8), rng)


def test_crop_shape_and_content(rng):
    img = np.arange(40 * 40 * 3, dtype=np.uint8).reshape(40, 40, 3)
    crop = RandomCrop(32, 32)
    out = crop.apply(img, rng)
    assert out.shape == (32, 32, 3)
    # The crop must be a contiguous window of the source.
    found = False
    for top in range(9):
        for left in range(9):
            if np.array_equal(out, img[top : top + 32, left : left + 32]):
                found = True
    assert found


def test_crop_too_small_rejected(rng):
    with pytest.raises(DataprepError):
        RandomCrop(64, 64).apply(np.zeros((32, 32, 3), dtype=np.uint8), rng)


def test_crop_randomness(rng):
    img = np.arange(40 * 40 * 3, dtype=np.uint8).reshape(40, 40, 3)
    crop = RandomCrop(20, 20)
    outs = {crop.apply(img, rng).tobytes() for _ in range(16)}
    assert len(outs) > 1  # different offsets actually sampled


def test_mirror_flips_horizontally():
    img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    always = Mirror(probability=1.0)
    out = always.apply(img, np.random.default_rng(0))
    assert np.array_equal(out, img[:, ::-1])
    never = Mirror(probability=0.0)
    assert np.array_equal(never.apply(img, np.random.default_rng(0)), img)


def test_mirror_probability_validated():
    with pytest.raises(DataprepError):
        Mirror(probability=1.5)


def test_noise_changes_pixels_but_bounded(rng):
    img = np.full((16, 16, 3), 128, dtype=np.uint8)
    out = GaussianNoise(sigma=5.0).apply(img, rng)
    assert out.dtype == np.uint8
    assert not np.array_equal(out, img)
    assert np.abs(out.astype(int) - 128).max() < 40


def test_noise_zero_sigma_near_identity(rng):
    img = np.full((8, 8, 3), 100, dtype=np.uint8)
    out = GaussianNoise(sigma=0.0).apply(img, rng)
    assert np.array_equal(out, img)


def test_noise_requires_uint8(rng):
    with pytest.raises(DataprepError):
        GaussianNoise().apply(np.zeros((4, 4, 3), dtype=np.float32), rng)


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
def test_noise_sigma_validated(sigma):
    with pytest.raises(DataprepError):
        GaussianNoise(sigma=sigma)


def _tail(sigma, k):
    """P(round(sigma * Z) > k) for a standard normal Z."""
    return 0.5 * math.erfc((k + 0.5) / (sigma * math.sqrt(2.0)))


@pytest.mark.parametrize("sigma", [4.0, 16.0])
def test_noise_table_is_the_quantized_rounded_gaussian(sigma):
    table = noise_table(sigma)
    assert table.dtype == np.int16 and table.shape == (1 << 16,)
    assert not table.flags.writeable
    assert np.all(np.diff(table) >= 0), "an inverse CDF is monotone"
    assert np.array_equal(table[::-1], -table), "not symmetric"
    kmax = int(table.max())
    # A far-tail offset whose mass is under 2**-16 may own no entry.
    counts = np.bincount(table + kmax, minlength=2 * kmax + 1)
    for k, count in zip(range(-kmax, kmax + 1), counts.tolist()):
        pmf = _tail(sigma, k - 1) - _tail(sigma, k)
        assert abs(count / 2**16 - pmf) <= 2**-16, f"offset {k}"
    # Truncated exactly where the tail mass falls below 2**-17.
    assert _tail(sigma, kmax) < 2**-17 <= _tail(sigma, kmax - 1)


def test_noise_table_zero_sigma_and_saturation():
    assert not noise_table(0.0).any()
    wide = noise_table(1e4)
    assert wide.min() == -255 and wide.max() == 255
    assert np.array_equal(wide[::-1], -wide)


@pytest.mark.parametrize("sigma", [4.0, 16.0])
def test_noise_op_chi_square_against_table_pmf(sigma):
    """Over 10**7 draws of the op at mid-grey (no clipping), the offset
    histogram fits the table's pmf: chi-square below its 1e-4 critical
    value (Wilson-Hilferty approximation of the chi-square quantile)."""
    op = GaussianNoise(sigma=sigma)
    img = np.full((224, 224, 3), 128, dtype=np.uint8)
    samples = -(-10**7 // img.size)
    table = noise_table(sigma)
    kmax = int(table.max())
    assert 128 + kmax < 255 and 128 - kmax > 0
    observed = np.zeros(2 * kmax + 1, dtype=np.int64)
    for rng in spawn_rngs(np.random.default_rng(2024), samples):
        out = op.apply(img, rng).astype(np.int64) - 128 + kmax
        observed += np.bincount(out.ravel(), minlength=observed.size)
    draws = observed.sum()
    assert draws >= 10**7
    expected = draws * np.bincount(table + kmax, minlength=observed.size) / 2**16
    drawn = expected > 0
    assert not observed[~drawn].any(), "an offset outside the table"
    observed, expected = observed[drawn], expected[drawn]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    dof = observed.size - 1
    z = 3.719  # standard normal quantile at 1 - 1e-4
    critical = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    assert chi2 < critical, f"chi2={chi2:.1f} over {dof} dof (critical {critical:.1f})"


def test_cast_scales_to_unit_range(rng):
    img = np.array([[[0, 128, 255]]], dtype=np.uint8)
    out = CastToFloat().apply(img, rng)
    assert out.dtype == np.float32
    assert out.min() == pytest.approx(0.0)
    assert out.max() == pytest.approx(1.0)


def test_full_pipeline_execution(rng):
    img = np.random.default_rng(0).integers(0, 256, (40, 40, 3), dtype=np.uint8)
    pipe = image_pipeline(out_height=32, out_width=32)
    out = pipe.run(encode(img), rng)
    assert out.shape == (32, 32, 3)
    assert out.dtype == np.float32


def test_pipeline_cost_matches_calibration():
    """The 256×256 image pipeline costs ≈3.9 M CPU cycles (DESIGN.md §5)."""
    spec = SampleSpec("jpeg", (256, 256, 3), 45_000)
    cost = image_pipeline().cost(spec)
    assert cost.cpu_cycles == pytest.approx(3.93e6, rel=0.02)
    assert cost.bytes_out == pytest.approx(224 * 224 * 3 * 4)


def test_cost_spec_threading():
    spec = SampleSpec("jpeg", (256, 256, 3), 45_000)
    pipe = image_pipeline()
    out_spec = pipe.output_spec(spec)
    assert out_spec.kind == "image_f32"
    assert out_spec.shape == (224, 224, 3)


def test_cost_rejects_wrong_input_kind():
    with pytest.raises(DataprepError):
        image_pipeline().cost(SampleSpec("audio_pcm", (1000,), 2000))


def test_crop_cost_validates_geometry():
    spec = SampleSpec("image_u8", (100, 100, 3), 30_000)
    with pytest.raises(DataprepError):
        RandomCrop(224, 224).cost(spec)
