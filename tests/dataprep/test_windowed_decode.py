"""Windowed JPEG decode: ``decode_batch(windows=...)`` is the window cut
from the full decode.

The windowed transform dequantizes and inverse-transforms only the MCUs
a window touches and colour-converts only the window (widened to whole
2×2 chroma cells for 4:2:0), so every pixel must equal
``decode_reference(blob)[top:top + h, left:left + w]``, reversed along
the width when the window flips.  Covered: windows at the four corners,
odd offsets (the 4:2:0 even-alignment edge), odd and even window sizes,
the full frame, batches on both sides of the lock-step crossover and
across transform-chunk edges, and the compiled plan's fused
decode + crop (+ mirror) stage.
"""

import numpy as np
import pytest

from repro.dataprep.jpeg import codec, decode_batch, encode_batch
from repro.dataprep.jpeg.codec import Window, decode_reference
from repro.dataprep.ops_image import (
    CastToFloat,
    DecodeJpeg,
    GaussianNoise,
    Mirror,
    RandomCrop,
    image_pipeline,
)
from repro.dataprep.pipeline import PrepPipeline, spawn_rngs
from repro.dataprep.plan import DecodeJpegStage, FusedCropMirrorStage, try_plan
from repro.errors import CodecError, DataprepError


def _image(h, w, seed):
    rng = np.random.default_rng(seed)
    gx = np.linspace(0, 200, w)
    img = gx[None, :, None] + rng.normal(0, 20, (h, w, 3))
    return np.clip(img, 0, 255).astype(np.uint8)


_BLOBS = {}


def _blobs(h, w, subsample):
    """Three distinct blobs of one geometry and their reference decodes."""
    key = (h, w, subsample)
    if key not in _BLOBS:
        blobs = encode_batch(
            [_image(h, w, seed) for seed in range(3)],
            quality=80,
            subsample=subsample,
        )
        _BLOBS[key] = blobs, [decode_reference(b) for b in blobs]
    return _BLOBS[key]


def _expected(ref, window):
    top, left, height, width, flip = window
    cut = ref[top : top + height, left : left + width]
    return cut[:, ::-1] if flip else cut


def _windows(n, h, w, oh, ow):
    """``n`` windows cycling through the four corners and odd, even and
    mixed-parity interior offsets, flipping every other one."""
    interior = [(1, 3), (2, 2), (h - oh - 1, 1), (3, w - ow - 2)]
    corners = [(0, 0), (0, w - ow), (h - oh, 0), (h - oh, w - ow)]
    origins = corners + [
        (min(max(t, 0), h - oh), min(max(l, 0), w - ow)) for t, l in interior
    ]
    return [
        Window(*origins[k % len(origins)], oh, ow, flip=bool(k % 2))
        for k in range(n)
    ]


# (h, w, subsample): the 4:2:0 and 4:4:4 geometries whose crossover is 6
# images (transform chunk 1), and a 4:2:0 one whose 5-image chunk stacks
# windows with different offsets.
GEOMETRIES = [(241, 255, True), (250, 262, False), (100, 120, True)]


@pytest.mark.parametrize("size", ["even", "odd"])
@pytest.mark.parametrize("batch", [1, 5, 6, 7, 33])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_windowed_decode_matches_the_cut_reference(geometry, batch, size):
    h, w, subsample = geometry
    blobs, refs = _blobs(h, w, subsample)
    # Even sizes round down, odd ones round up to odd: 224x224 or
    # 225x225 windows of 241x255, for instance.
    parity = 0 if size == "even" else 1
    oh, ow = (h - 17) // 2 * 2 + parity, (w - 31) // 2 * 2 + parity
    windows = _windows(batch, h, w, oh, ow)
    datas = [blobs[k % 3] for k in range(batch)]
    arena = np.empty((batch, oh, ow, 3), dtype=np.uint8)
    assert decode_batch(datas, out=arena, windows=windows) is arena
    listed = decode_batch(datas, windows=windows)
    for k, window in enumerate(windows):
        want = _expected(refs[k % 3], window)
        assert np.array_equal(arena[k], want), f"image {k} {window}"
        assert np.array_equal(listed[k], want), f"image {k} {window}"


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_full_frame_window_is_the_full_decode(geometry):
    h, w, subsample = geometry
    blobs, refs = _blobs(h, w, subsample)
    windows = [(0, 0, h, w, False), (0, 0, h, w, True), (0, 0, h, w, False)]
    for k, image in enumerate(decode_batch(blobs, windows=windows)):
        assert np.array_equal(image, _expected(refs[k], windows[k]))
        assert np.array_equal(decode_batch([blobs[k]])[0], refs[k])


def test_mixed_window_sizes_in_one_call():
    h, w, subsample = GEOMETRIES[0]
    blobs, refs = _blobs(h, w, subsample)
    windows = [(0, 0, h, w), (5, 7, 16, 16, True), (1, 2, 200, 33)]
    for k, image in enumerate(decode_batch(blobs, windows=windows)):
        assert np.array_equal(image, _expected(refs[k], Window(*windows[k])))


def test_windows_are_validated():
    blobs, _ = _blobs(100, 120, True)
    with pytest.raises(CodecError, match="outside"):
        decode_batch(blobs[:1], windows=[(90, 0, 11, 10)])
    with pytest.raises(CodecError, match="outside"):
        decode_batch(blobs[:1], windows=[(-1, 0, 10, 10)])
    with pytest.raises(CodecError, match="outside"):
        decode_batch(blobs[:1], windows=[(0, 0, 0, 10)])
    with pytest.raises(CodecError, match="windows for"):
        decode_batch(blobs[:2], windows=[(0, 0, 10, 10)])
    with pytest.raises(CodecError, match="expects uniform"):
        decode_batch(
            blobs[:1],
            out=np.empty((1, 100, 120, 3), dtype=np.uint8),
            windows=[(0, 0, 10, 10)],
        )


def _assert_plan_matches_reference(pipe, blobs, seed=5):
    n = len(blobs)
    plan = try_plan(pipe, blobs)
    planned = plan.execute(blobs, spawn_rngs(np.random.default_rng(seed), n))
    reference = pipe.run_batch_reference(
        blobs, spawn_rngs(np.random.default_rng(seed), n)
    )
    for i, ref in enumerate(reference):
        assert ref.dtype == planned.dtype
        assert np.array_equal(ref, planned[i]), f"sample {i} differs"
    return plan


@pytest.mark.parametrize("batch", [1, 7])
def test_plan_folds_crop_and_mirror_into_the_decode(batch):
    blobs, _ = _blobs(241, 255, True)
    pipe = image_pipeline(out_height=224, out_width=224)
    plan = _assert_plan_matches_reference(
        pipe, [blobs[k % 3] for k in range(batch)]
    )
    decode = plan.stages[0]
    assert isinstance(decode, DecodeJpegStage)
    assert decode.fuses == ("decode_jpeg", "random_crop", "mirror")
    assert decode.slots()[0][1].shape == (batch, 224, 224, 3)
    assert len(plan.stages) == 2


def test_plan_folds_a_crop_not_followed_by_mirror():
    blobs, _ = _blobs(100, 120, True)
    pipe = PrepPipeline(
        [
            DecodeJpeg(),
            RandomCrop(out_height=63, out_width=97),
            GaussianNoise(sigma=2.0),
            Mirror(probability=0.5),
            CastToFloat(),
        ],
        name="crop-then-noise",
    )
    datas = [blobs[k % 3] for k in range(7)]
    plan = _assert_plan_matches_reference(pipe, datas)
    assert plan.stages[0].fuses == ("decode_jpeg", "random_crop")


def test_oversized_crop_stays_its_own_stage_and_raises():
    blobs, _ = _blobs(100, 120, True)
    pipe = image_pipeline(out_height=101, out_width=64)
    plan = try_plan(pipe, blobs)
    assert plan.stages[0].fuses == ("decode_jpeg",)
    assert isinstance(plan.stages[1], FusedCropMirrorStage)
    with pytest.raises(DataprepError, match="cannot crop"):
        plan.execute(blobs, spawn_rngs(np.random.default_rng(0), 3))
    with pytest.raises(DataprepError, match="cannot crop"):
        pipe.run_batch_reference(blobs, spawn_rngs(np.random.default_rng(0), 3))


def test_transform_chunk_budget():
    assert codec.transform_chunk_images(64, 64) == 16
    assert codec.transform_chunk_images(128, 128) == 4
    assert codec.transform_chunk_images(256, 256) == 1
    assert codec.transform_chunk_images(512, 512) == 1
    assert codec.transform_chunk_images(100, 120) == 5
