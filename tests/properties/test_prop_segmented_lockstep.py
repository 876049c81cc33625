"""Properties of the segmented lock-step JPEG entropy walk.

``entropy_fast.decode_planes_batch`` splits every plane stream into
segment lanes that start at arbitrary bit offsets and stitches them at
their sync points.  Whatever the segmentation — one lane per stream,
a segment target above a plane's block count, one-block planes, 4:2:0
and 4:4:4, luma and chroma streams with different Huffman tables in
one walk, sync windows too short to sync — each output must be
bit-identical to the sequential ``decode_plane``, and a corrupt blob
must fail the batch exactly when it fails on its own.
"""

import contextlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataprep.jpeg import codec, entropy_fast
from repro.errors import CodecError
from tests.dataprep.test_ops_batch_equality import _lockstep_decode
from tests.dataprep.test_ops_batch_equality import _plane_tasks as plane_tasks


@contextlib.contextmanager
def segmentation(target_lanes=None, min_blocks=None, window_bits=None):
    """Temporarily override the walk's segmenting constants."""
    names = {
        "_TARGET_LANES": target_lanes,
        "_MIN_SEGMENT_BLOCKS": min_blocks,
        "_SYNC_WINDOW_BITS": window_bits,
    }
    saved = {name: getattr(entropy_fast, name) for name in names}
    try:
        for name, value in names.items():
            if value is not None:
                setattr(entropy_fast, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(entropy_fast, name, value)


def textured(rng, h, w):
    """Smooth gradient plus noise: realistic symbol mix at any size."""
    yy, xx = np.mgrid[0:h, 0:w]
    base = (yy * 3 + xx * 2)[..., None] % 256
    noise = rng.normal(0, 12, (h, w, 3))
    return np.clip(base + 40 + noise, 0, 255).astype(np.uint8)


def outcome(fn):
    try:
        return fn()
    except CodecError:
        return CodecError


images = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=72),
        st.integers(min_value=1, max_value=72),
        st.integers(min_value=5, max_value=98),
    ),
    min_size=1,
    max_size=4,
)


@given(
    shapes=images,
    subsample=st.booleans(),
    target_lanes=st.sampled_from([1, 8, 64, 256, 4096]),
    min_blocks=st.sampled_from([1, 2, 8, 64]),
    window_bits=st.sampled_from([0, 16, 64, 256]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_segmented_walk_equals_sequential_decode(
    shapes, subsample, target_lanes, min_blocks, window_bits, seed
):
    rng = np.random.default_rng(seed)
    blobs = [
        codec.encode(textured(rng, h, w), quality=q, subsample=subsample)
        for h, w, q in shapes
    ]
    tasks = plane_tasks(blobs)
    with segmentation(target_lanes, min_blocks, window_bits):
        got = entropy_fast.decode_planes_batch(tasks)
    for plane, task in zip(got, tasks):
        assert np.array_equal(plane, entropy_fast.decode_plane(*task))


@given(
    shapes=st.lists(
        st.tuples(
            st.integers(min_value=8, max_value=64),
            st.integers(min_value=8, max_value=64),
            st.integers(min_value=20, max_value=95),
        ),
        min_size=2,
        max_size=4,
    ),
    victim=st.integers(min_value=0, max_value=3),
    cut=st.booleans(),
    where=st.floats(min_value=0.0, max_value=1.0),
    bit=st.integers(min_value=0, max_value=7),
    min_blocks=st.sampled_from([1, 4, 64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_corrupt_blob_fails_batch_exactly_when_it_fails_alone(
    shapes, victim, cut, where, bit, min_blocks, seed
):
    rng = np.random.default_rng(seed)
    h, w, _ = shapes[0]
    blobs = [
        codec.encode(textured(rng, h, w), quality=q) for _, _, q in shapes
    ]
    victim %= len(blobs)
    bad = bytearray(blobs[victim])
    # Damage the entropy-coded streams at the end of the container (the
    # header is test_prop_malformed's).
    payload = sum(len(s) for s in codec._parse_frame(blobs[victim]).streams)
    pos = len(bad) - payload + int(where * (payload - 1))
    if cut:
        del bad[pos:]
    else:
        bad[pos] ^= 1 << bit
    blobs[victim] = bytes(bad)
    alone = [outcome(lambda b=b: codec.decode(b)) for b in blobs]
    with segmentation(min_blocks=min_blocks):
        batch = outcome(lambda: _lockstep_decode(blobs))
    if any(result is CodecError for result in alone):
        assert batch is CodecError
    else:
        assert batch is not CodecError
        for got, want in zip(batch, alone):
            assert np.array_equal(got, want)
