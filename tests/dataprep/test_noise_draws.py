"""The noise stage's 16-bit draws: ``uniform_uint16`` against
``rng.integers(0, 65536, dtype=np.uint16)``.

The raw-word path must give the same values and leave the same generator
state (the whole ``state`` dict, buffered half included), so that the
sample's later draws and the reference ``GaussianNoise.apply`` cannot
tell the paths apart.  Every case outside that path must fall back to
``integers``; a count that times nothing shows the engine's per-sample
streams take the raw path.
"""

import numpy as np
import pytest

from repro.dataprep import ops_image
from repro.dataprep.ops_image import (
    CastToFloat,
    GaussianNoise,
    add_table_noise,
    noise_table,
    uniform_uint16,
)
from repro.dataprep.pipeline import PrepPipeline, sample_rng


def _same_state(a, b):
    """Equal bit-generator states (MT19937 and Philox keep arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _assert_same_draws(make, shape):
    ref, got = make(), make()
    want = ref.integers(0, 65536, size=shape, dtype=np.uint16)
    draws = uniform_uint16(got, shape)
    assert draws.dtype == np.uint16 and draws.shape == want.shape
    assert np.array_equal(draws, want)
    assert _same_state(got.bit_generator.state, ref.bit_generator.state)
    # Later draws of every width agree too.
    assert np.array_equal(
        got.integers(0, 2**32, size=5, dtype=np.uint32),
        ref.integers(0, 2**32, size=5, dtype=np.uint32),
    )
    assert np.array_equal(got.random(3), ref.random(3))


SHAPES = [(224, 224, 3), (4,), (8,), (2, 6), (1,), (2,), (3,), (5,), (6,), (7, 3), (0,)]


@pytest.mark.parametrize("shape", SHAPES)
def test_pcg64_draws_equal_integers(shape):
    _assert_same_draws(lambda: sample_rng(3, 17), shape)


@pytest.mark.parametrize("shape", [(224, 224, 3), (8,), (6,)])
def test_buffered_uint32_half_falls_back(shape):
    """One odd uint32 draw leaves ``has_uint32`` set: the next 16-bit
    draw starts with the buffered half, so raw words would be wrong."""

    def make():
        rng = np.random.default_rng(5)
        rng.integers(0, 2**32, dtype=np.uint32)
        return rng

    assert make().bit_generator.state["has_uint32"] == 1
    _assert_same_draws(make, shape)


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
)
@pytest.mark.parametrize("shape", [(224, 224, 3), (8,), (6,)])
def test_other_bit_generators_fall_back(bit_generator, shape, monkeypatch):
    calls = []
    monkeypatch.setattr(
        ops_image, "_pcg64_uint16", lambda *a: calls.append(a) or None
    )
    _assert_same_draws(lambda: np.random.Generator(bit_generator(9)), shape)
    assert calls == []


def _count_raw_draws(monkeypatch):
    calls = []
    raw = ops_image._pcg64_uint16

    def counted(bit_generator, size):
        calls.append(size)
        return raw(bit_generator, size)

    monkeypatch.setattr(ops_image, "_pcg64_uint16", counted)
    return calls


def test_sample_streams_take_the_raw_path(monkeypatch):
    """The engine's per-sample streams (``sample_rng``) qualify: a
    224×224×3 sample's noise comes from raw words, no ``integers``."""
    calls = _count_raw_draws(monkeypatch)
    pixels = np.zeros((224, 224, 3), dtype=np.uint8)
    row = np.empty(pixels.shape, dtype=np.int16)
    for i in range(4):
        add_table_noise(noise_table(4.0), pixels, sample_rng(0, i), row)
    assert calls == [224 * 224 * 3] * 4


def test_plan_noise_equals_the_reference_op(monkeypatch):
    """The compiled plan's fused noise + cast (raw draws) equals the
    per-sample reference ops (``GaussianNoise.apply`` keeps
    ``integers``) on the same streams, and did take the raw path."""
    calls = _count_raw_draws(monkeypatch)
    pipe = PrepPipeline([GaussianNoise(sigma=6.0), CastToFloat()])
    batch = np.random.default_rng(1).integers(
        0, 256, size=(6, 32, 40, 3), dtype=np.uint8
    )
    got = pipe.run_batch_vectorized(batch, [sample_rng(2, i) for i in range(6)])
    want = pipe.run_batch_reference(batch, [sample_rng(2, i) for i in range(6)])
    assert calls == [32 * 40 * 3] * 6
    assert np.array_equal(got, np.stack(want))
