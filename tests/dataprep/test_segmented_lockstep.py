"""The segmented lock-step entropy walk: stitching, its sequential
fallback, corrupt streams in every segment position, and the crossover
that routes a batch of 32 to it."""

import numpy as np
import pytest

from repro.dataprep.jpeg import codec, entropy_fast
from repro.datasets.imagenet import synthesize_image
from repro.errors import CodecError
from tests.dataprep.test_ops_batch_equality import _lockstep_decode
from tests.dataprep.test_ops_batch_equality import _plane_tasks as plane_tasks
from tests.properties.test_prop_segmented_lockstep import segmentation


def corpus_blobs(n, side, seed):
    """Photo-like JPEGs as the prep benchmark's corpus makes them."""
    rng = np.random.default_rng([seed, 1])
    images = [
        synthesize_image(rng, side, side, int(rng.integers(0, 1000)))
        for _ in range(n)
    ]
    return codec.encode_batch(images, quality=80)


@pytest.fixture
def tails(monkeypatch):
    """Records ``(pos, first_block)`` of every sequential tail decode."""
    calls = []
    real = entropy_fast._decode_blocks

    def spy(stream, dc_t, ac_t, n_blocks, pos=0, first_block=0):
        calls.append((pos, first_block))
        return real(stream, dc_t, ac_t, n_blocks, pos, first_block)

    monkeypatch.setattr(entropy_fast, "_decode_blocks", spy)
    return calls


def assert_planes_match(tasks, tails):
    want = [entropy_fast.decode_plane(*task) for task in tasks]
    tails.clear()
    got = entropy_fast.decode_planes_batch(tasks)
    for plane, expected in zip(got, want):
        assert np.array_equal(plane, expected)


def test_segment_counts_respect_target_and_minimum():
    blocks = np.array([1024, 1024, 256, 1, 64])
    bits = np.array([26_000, 24_000, 4_000, 16, 900])
    with segmentation(target_lanes=64, min_blocks=64):
        segs = entropy_fast._segment_counts(blocks, bits)
    assert segs.min() >= 1
    assert np.all((segs == 1) | (blocks // segs >= 64))
    assert list(segs) == [16, 16, 4, 1, 1]
    with segmentation(target_lanes=1):
        assert list(entropy_fast._segment_counts(blocks, bits)) == [1] * 5


def test_stitched_walk_needs_no_fallback_on_corpus_planes(tails):
    tasks = plane_tasks(corpus_blobs(8, 256, seed=3))
    assert_planes_match(tasks, tails)
    assert tails == []


def test_lane_that_never_syncs_falls_back_to_sequential(tails):
    # A zero-bit sync window leaves every successor lane without a
    # single searchable row: every segmented stream continues its first
    # lane sequentially from block 0.
    tasks = plane_tasks(corpus_blobs(4, 128, seed=4))
    with segmentation(min_blocks=16, window_bits=0):
        assert_planes_match(tasks, tails)
    assert tails == [(0, 0)] * len(tasks)


def test_fallback_resumes_after_a_synced_predecessor(tails):
    # A window too short for some lanes: a stream's later lane fails
    # after earlier ones stitched, and the sequential tail resumes at
    # the first block its predecessor starts after syncing.
    tasks = plane_tasks(corpus_blobs(4, 64, seed=5))
    with segmentation(min_blocks=4, window_bits=32):
        assert_planes_match(tasks, tails)
    assert any(block > 0 for _, block in tails)


@pytest.mark.parametrize("segment", ["first", "middle", "last"])
def test_corrupt_code_in_any_segment_fails_like_the_single_decode(segment):
    blobs = corpus_blobs(4, 256, seed=9)
    frames = [codec._parse_frame(b) for b in blobs]
    luma_bits = np.array([len(f.streams[0]) * 8 for f in frames])
    segs = int(entropy_fast._segment_counts(np.full(4, 1024), luma_bits)[0])
    assert segs > 2
    j = {"first": 0, "middle": segs // 2, "last": segs - 1}[segment]
    seg_bits = luma_bits[0] // segs
    stream_at = len(blobs[0]) - sum(len(s) for s in frames[0].streams)
    outcomes = set()
    for step in range(60):
        bit = j * luma_bits[0] // segs + seg_bits * 3 // 10 + 7 * step
        bad = bytearray(blobs[0])
        bad[stream_at + bit // 8] ^= 0x80 >> (bit % 8)
        batch = [bytes(bad)] + blobs[1:]
        try:
            alone = codec.decode(batch[0])
        except CodecError:
            with pytest.raises(CodecError):
                _lockstep_decode(batch)
            outcomes.add("error")
            continue
        got = _lockstep_decode(batch)
        assert np.array_equal(got[0], alone)
        outcomes.add("decoded")
    assert outcomes == {"error", "decoded"}


def test_invalid_prefix_on_a_kept_row_raises():
    # A one-symbol table leaves half the code space invalid; the batch
    # walk steps over an invalid prefix instead of stalling, and the
    # epilogue must still reject it.
    blob = codec.encode(np.zeros((8, 8, 3), dtype=np.uint8))
    stream, dc_t, ac_t, nb = plane_tasks([blob])[0]
    with pytest.raises(CodecError):
        entropy_fast.decode_plane(b"\xff" * 8, dc_t, ac_t, nb)
    with pytest.raises(CodecError):
        entropy_fast.decode_planes_batch([(b"\xff" * 8, dc_t, ac_t, nb)])


def test_plan_routes_batch_32_to_the_lockstep_walk():
    from repro.dataprep.ops_image import image_pipeline
    from repro.dataprep.plan import compile_plan, geometry_for_batch

    pipe = image_pipeline(out_height=224, out_width=224)
    blobs = corpus_blobs(32, 256, seed=6)
    plan = compile_plan(pipe, geometry_for_batch(pipe, blobs))
    text = plan.describe()
    recorded = int(text.split("lockstep_min=")[1].split()[0])
    assert recorded <= 32
    assert codec.lockstep_min_images(32 * 32) == recorded
    chunk = int(text.split("transform_chunk=")[1].split()[0])
    assert chunk == codec.transform_chunk_images(256, 256) == 1
    assert "[0] decode_jpeg+random_crop+mirror " in text
