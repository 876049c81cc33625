"""Batched-vs-scalar bit-equality: the tentpole contract.

Every ``PrepOp.apply_batch`` must satisfy, bit for bit,
``apply_batch(batch, rngs)[i] == apply(batch[i], rngs[i])`` — across
ops, dtypes, batch sizes (including N=1 and a ragged final batch) and
whole pipelines.  These tests drive both paths on the *same* spawned
streams and compare exactly; no tolerance anywhere.
"""

import numpy as np
import pytest

from repro.dataprep import (
    CastToFloat,
    ClipCast,
    ClipCrop,
    GaussianNoise,
    MelFilterBank,
    Mirror,
    Normalize,
    RandomCrop,
    SpecMasking,
    Spectrogram,
    TemporalSubsample,
    audio_pipeline,
    image_pipeline,
    video_pipeline,
)
from repro.dataprep.jpeg import codec as jpeg_codec
from repro.dataprep.jpeg import entropy_fast
from repro.dataprep.ops_video import encode_clip
from repro.dataprep.pipeline import spawn_rngs
from repro.errors import CodecError


def _images(n, h=24, w=24, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(n)]
    )


def _assert_batch_equals_scalar(op, batch, seed=7):
    rngs_a = spawn_rngs(np.random.default_rng(seed), len(batch))
    rngs_b = spawn_rngs(np.random.default_rng(seed), len(batch))
    batched = op.apply_batch(
        batch.copy() if isinstance(batch, np.ndarray) else list(batch), rngs_a
    )
    for i in range(len(batch)):
        scalar = op.apply(
            batch[i].copy() if isinstance(batch[i], np.ndarray) else batch[i],
            rngs_b[i],
        )
        got = batched[i]
        assert got.dtype == scalar.dtype, op.name
        assert np.array_equal(got, scalar), f"{op.name} differs at sample {i}"


@pytest.mark.parametrize("n", [1, 3, 8])
def test_image_ops_batch_equality(n):
    batch = _images(n)
    for op in [
        RandomCrop(16, 16),
        Mirror(0.5),
        GaussianNoise(4.0),
        CastToFloat(),
    ]:
        _assert_batch_equals_scalar(op, batch, seed=n)


def test_mirror_all_and_none_flipped():
    batch = _images(4)
    _assert_batch_equals_scalar(Mirror(1.0), batch)
    _assert_batch_equals_scalar(Mirror(0.0), batch)


@pytest.mark.parametrize("n", [1, 5])
def test_audio_ops_batch_equality(n):
    rng = np.random.default_rng(11)
    batch = np.stack(
        [
            (rng.standard_normal(4000) * 8000).astype(np.int16)
            for _ in range(n)
        ]
    )
    spec_op = Spectrogram()
    _assert_batch_equals_scalar(spec_op, batch, seed=n)
    rngs = spawn_rngs(np.random.default_rng(0), n)
    specs = spec_op.apply_batch(batch, rngs)
    for op in [MelFilterBank(), SpecMasking(8, 4), Normalize()]:
        _assert_batch_equals_scalar(op, specs, seed=n)
        rngs = spawn_rngs(np.random.default_rng(0), n)
        specs = op.apply_batch(specs, rngs)


def test_video_ops_batch_equality():
    rng = np.random.default_rng(3)
    clips = [
        encode_clip(
            [
                rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
                for _ in range(4)
            ]
        )
        for _ in range(3)
    ]
    pipe = video_pipeline(out_height=12, out_width=12, stride=2)
    decode = pipe.ops[0]
    rngs = spawn_rngs(np.random.default_rng(0), len(clips))
    frames = decode.apply_batch(clips, rngs)
    for i, clip in enumerate(clips):
        assert np.array_equal(
            frames[i], decode.apply(clip, np.random.default_rng())
        )
    for op in [TemporalSubsample(2), ClipCrop(12, 12), ClipCast()]:
        _assert_batch_equals_scalar(op, frames)
        rngs = spawn_rngs(np.random.default_rng(0), len(clips))
        frames = op.apply_batch(frames, rngs)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_image_pipeline_end_to_end_bit_identity(n):
    # 7 with batch_size 4 exercises the ragged final shard shape at the
    # run_batch level: vectorized over the whole list at once.
    blobs = [
        jpeg_codec.encode(img, quality=80) for img in _images(n, 40, 40, n)
    ]
    pipe = image_pipeline(out_height=32, out_width=32)
    rngs_a = spawn_rngs(np.random.default_rng(21), n)
    rngs_b = spawn_rngs(np.random.default_rng(21), n)
    vec = pipe.run_batch_vectorized(blobs, rngs_a)
    ref = pipe.run_batch_reference(blobs, rngs_b)
    for i in range(n):
        assert vec[i].dtype == ref[i].dtype
        assert np.array_equal(vec[i], ref[i])


def test_audio_pipeline_end_to_end_bit_identity():
    rng = np.random.default_rng(9)
    batch = np.stack(
        [(rng.standard_normal(4000) * 1000).astype(np.int16) for _ in range(4)]
    )
    pipe = audio_pipeline(max_time_mask=8, max_freq_mask=4)
    vec = pipe.run_batch_vectorized(
        batch, spawn_rngs(np.random.default_rng(5), 4)
    )
    ref = pipe.run_batch_reference(
        batch, spawn_rngs(np.random.default_rng(5), 4)
    )
    for i in range(4):
        assert np.array_equal(vec[i], ref[i])


# -- the lock-step batched entropy decoder ------------------------------


def _plane_tasks(blobs):
    tasks = []
    for blob in blobs:
        frame = jpeg_codec._parse_frame(bytes(blob))
        geometry = jpeg_codec._plane_geometry(
            frame.subsample, frame.h, frame.w
        )
        dc_l, ac_l, dc_c, ac_c = (
            jpeg_codec.table_from_spec(s) for s in frame.specs
        )
        shapes = geometry.plane_shapes
        tasks.append(
            (
                frame.streams[0],
                dc_l,
                ac_l,
                (shapes[0][0] // 8) * (shapes[0][1] // 8),
            )
        )
        for p in (1, 2):
            tasks.append(
                (
                    frame.streams[p],
                    dc_c,
                    ac_c,
                    (shapes[p][0] // 8) * (shapes[p][1] // 8),
                )
            )
    return tasks


def _lockstep_decode(blobs):
    """``decode_batch``'s lock-step route at any batch size: every
    blob's streams in one lock-step walk per plane kind, then each image
    through the shared transform.  The blobs must share one geometry."""
    frames = [jpeg_codec._parse_frame(bytes(b)) for b in blobs]
    geometry = jpeg_codec._plane_geometry(
        frames[0].subsample, frames[0].h, frames[0].w
    )
    blocks = jpeg_codec._entropy_decode_group(frames, geometry)
    images = []
    for frame, image_blocks in zip(frames, blocks):
        image = np.empty((frame.h, frame.w, 3), dtype=np.uint8)
        jpeg_codec._transform(
            [frame], geometry, [image_blocks],
            [jpeg_codec._full_window(frame)], [image],
        )
        images.append(image)
    return images


def test_decode_planes_batch_matches_decode_plane():
    blobs = [
        jpeg_codec.encode(img, quality=q)
        for img, q in zip(_images(4, 24, 40, 2), [50, 75, 90, 75])
    ]
    tasks = _plane_tasks(blobs)
    batched = entropy_fast.decode_planes_batch(tasks)
    for got, (stream, dc_t, ac_t, nb) in zip(batched, tasks):
        want = entropy_fast.decode_plane(stream, dc_t, ac_t, nb)
        assert np.array_equal(got, want)


def test_decode_planes_batch_single_and_empty():
    blobs = [jpeg_codec.encode(_images(1, 16, 16)[0])]
    tasks = _plane_tasks(blobs)[:1]
    batched = entropy_fast.decode_planes_batch(tasks)
    want = entropy_fast.decode_plane(*tasks[0])
    assert np.array_equal(batched[0], want)
    assert entropy_fast.decode_planes_batch([]) == []


def test_decode_planes_batch_corrupt_stream_raises():
    blobs = [jpeg_codec.encode(_images(1, 16, 16)[0])]
    stream, dc_t, ac_t, nb = _plane_tasks(blobs)[0]
    with pytest.raises(CodecError):
        entropy_fast.decode_planes_batch([(b"\x00" * 64, dc_t, ac_t, nb)])
    with pytest.raises(CodecError):
        # Truncated stream: runs out of bits before the last block.
        entropy_fast.decode_planes_batch([(stream[:2], dc_t, ac_t, nb)])


def test_decode_batch_lockstep_path_identity():
    blobs = [
        jpeg_codec.encode(img, quality=75) for img in _images(6, 24, 24, 5)
    ]
    want = [jpeg_codec.decode_reference(b) for b in blobs]
    got = _lockstep_decode(blobs)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
