"""Property: the codec fast paths agree with the reference paths on
arbitrary inputs — ``decode(encode(x)) == decode_reference(x_ref)`` where
the encoded bytes ``encode(x) == x_ref == encode_reference(x)``."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dataprep.jpeg import codec
from repro.dataprep.png import deflate, filters, lz77

small_images = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.just(3),
    ),
    elements=st.integers(min_value=0, max_value=255),
)


@given(
    img=small_images,
    quality=st.integers(min_value=1, max_value=100),
    subsample=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_jpeg_fast_equals_reference(img, quality, subsample):
    blob = codec.encode(img, quality=quality, subsample=subsample)
    assert blob == codec.encode_reference(
        img, quality=quality, subsample=subsample
    )
    assert np.array_equal(codec.decode(blob), codec.decode_reference(blob))


@given(data=st.binary(max_size=2048), max_chain=st.sampled_from([1, 4, 32]))
@settings(max_examples=40, deadline=None)
def test_lz77_fast_equals_reference(data, max_chain):
    ref = lz77.tokenize_reference(data, max_chain=max_chain)
    fast = lz77.tokenize(data, max_chain=max_chain)
    assert fast == ref
    assert lz77.expand(fast) == data


@given(data=st.binary(max_size=2048))
@settings(max_examples=40, deadline=None)
def test_deflate_fast_equals_reference(data):
    blob = deflate.compress(data)
    assert blob == deflate.compress_reference(data)
    assert deflate.decompress(blob) == data
    assert deflate.decompress_reference(blob) == data


@given(
    img=hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(
            st.integers(min_value=1, max_value=16),
            st.integers(min_value=1, max_value=16),
            st.sampled_from([1, 3, 4]),
        ),
        elements=st.integers(min_value=0, max_value=255),
    )
)
@settings(max_examples=40, deadline=None)
def test_png_filters_fast_equals_reference(img):
    ref_methods, ref_res = filters.filter_image_reference(img)
    methods, res = filters.filter_image(img)
    assert methods == ref_methods
    assert np.array_equal(res, ref_res)
    assert np.array_equal(
        filters.unfilter_image(methods, res, img.shape), img
    )
