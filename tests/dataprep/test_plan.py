"""Compiled prep plans: bit-identity, arena reuse, memoization, fallback.

The plan compiler's whole contract is "same bits, fewer allocations":
every test here pins ``PrepPlan.execute`` against the kept per-sample
reference (``run_batch_reference``) or the per-op vectorized path, and
the arena tests pin the zero-allocation steady state.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.cache import clear_memo
from repro.dataprep import jpeg, run_engine
from repro.dataprep.ops_audio import Mfcc, audio_pipeline
from repro.dataprep.ops_image import (
    CastToFloat,
    GaussianNoise,
    Mirror,
    RandomCrop,
    image_pipeline,
)
from repro.dataprep.pipeline import PrepPipeline, spawn_rngs
from repro.dataprep.plan import (
    DecodePngStage,
    FusedNoiseCastStage,
    NoiseStage,
    PlanGeometry,
    PlanInapplicable,
    compile_plan,
    geometry_for_batch,
    plan_fingerprint,
    try_plan,
)
from repro.dataprep.png import codec as png
from repro.datasets.imagenet import synthesize_image
from repro.errors import DataprepError


def _images(n, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for i in range(n)]


def _jpeg_blobs(n, h=48, w=48, seed=3):
    return jpeg.encode_batch(_images(n, h, w, seed), quality=80)


def assert_zero_alloc(fn, *, warmup=2, iters=5, limit_bytes=16_384):
    """Assert ``fn`` retains no memory across repeated calls.

    The check measures **net retained** traced memory, not gross
    allocations: a steady-state function may allocate temporaries (e.g.
    ``np.fft.rfft`` output) as long as they are freed before the next
    call, but anything that accumulates — a new output array per call, a
    growing cache — shows up as traced-memory growth.  ``fn`` runs
    ``warmup`` untraced calls plus one traced one (so lazily-built
    caches, interned objects and arena buffers are paid for before the
    measurement), then ``iters`` measured calls; growth beyond
    ``limit_bytes`` (a small allowance for interpreter noise) fails.
    """
    for _ in range(warmup):
        fn()
    gc.collect()
    tracemalloc.start()
    try:
        fn()  # traced warm-up: one-time lazy allocations land here
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(iters):
            fn()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    growth = after - before
    assert growth <= limit_bytes, (
        f"steady-state calls retained {growth} bytes over {iters} "
        f"iterations (limit {limit_bytes}); the path is not "
        f"zero-allocation"
    )


def _assert_matches_reference(pipe, batch, n, seed=11):
    plan = try_plan(pipe, batch)
    assert plan is not None
    rngs = spawn_rngs(np.random.default_rng(seed), n)
    planned = plan.execute(batch, rngs).copy()
    rngs = spawn_rngs(np.random.default_rng(seed), n)
    reference = pipe.run_batch_reference(batch, rngs)
    for i, ref in enumerate(reference):
        assert ref.dtype == planned.dtype
        assert np.array_equal(ref, planned[i]), f"sample {i} differs"
    return plan


def test_jpeg_plan_bit_identical_to_reference():
    pipe = image_pipeline(out_height=32, out_width=32)
    _assert_matches_reference(pipe, _jpeg_blobs(6), 6)


def test_png_plan_bit_identical_to_reference():
    pipe = image_pipeline(out_height=32, out_width=32, source_format="png")
    blobs = [png.encode(img) for img in _images(5, 48, 48, seed=9)]
    _assert_matches_reference(pipe, blobs, 5)


def test_audio_plan_bit_identical_to_reference_int16():
    pipe = audio_pipeline()
    pcm = (
        np.clip(np.random.default_rng(5).normal(0, 0.2, (4, 8_000)), -1, 1)
        * 32767
    ).astype(np.int16)
    _assert_matches_reference(pipe, pcm, 4)


def test_audio_plan_bit_identical_to_reference_float():
    pipe = audio_pipeline()
    pcm = np.random.default_rng(6).normal(0, 0.2, (3, 8_000))
    _assert_matches_reference(pipe, pcm, 3)


def test_execute_returns_same_arena_buffer_each_call():
    """Steady state re-serves the same arena view — no per-batch output
    allocation."""
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    plan = try_plan(pipe, blobs)
    out1 = plan.execute(blobs, spawn_rngs(np.random.default_rng(0), 4))
    out2 = plan.execute(blobs, spawn_rngs(np.random.default_rng(1), 4))
    assert out1 is out2


def test_plan_steady_state_zero_alloc():
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    plan = try_plan(pipe, blobs)

    def step():
        plan.execute(blobs, spawn_rngs(np.random.default_rng(0), 4))

    assert_zero_alloc(step, warmup=2, iters=4)


def test_assert_zero_alloc_catches_leaks():
    sink = []

    def leaky():
        sink.append(np.zeros(64 * 1024, dtype=np.uint8))

    with pytest.raises(AssertionError):
        assert_zero_alloc(leaky, warmup=1, iters=4)


def test_run_batch_vectorized_routes_through_plan_and_copies():
    """The pipeline entry point must hand the caller an owned copy, not
    the arena (which the next batch would overwrite)."""
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    rngs = spawn_rngs(np.random.default_rng(2), 4)
    out1 = pipe.run_batch_vectorized(blobs, rngs)
    rngs = spawn_rngs(np.random.default_rng(2), 4)
    out2 = pipe.run_batch_vectorized(blobs, rngs)
    assert out1 is not out2
    assert np.array_equal(out1, out2)
    plan = try_plan(pipe, blobs)
    arena_out = plan.execute(blobs, spawn_rngs(np.random.default_rng(2), 4))
    assert out1 is not arena_out
    assert np.array_equal(out1, arena_out)


def _jpeg_case():
    return image_pipeline(out_height=32, out_width=32), _jpeg_blobs(4)


def _png_case():
    pipe = image_pipeline(out_height=32, out_width=32, source_format="png")
    return pipe, [png.encode(img) for img in _images(3, 48, 48, seed=9)]


def _audio_case():
    pcm = np.random.default_rng(6).normal(0, 0.2, (3, 8_000))
    return audio_pipeline(), pcm


_CASES = pytest.mark.parametrize(
    "case", [_jpeg_case, _png_case, _audio_case], ids=["jpeg", "png", "audio"]
)


def _shares_an_arena_slot(plan, array):
    return any(np.shares_memory(array, slot) for _, slot in plan.slots())


@_CASES
def test_run_batch_vectorized_results_are_owned(case):
    """Two results are distinct arrays, neither aliases the plan's arena
    (which the next batch overwrites), and each is the reference's bits."""
    pipe, batch = case()
    n = len(batch)
    results = [
        pipe.run_batch_vectorized(batch, spawn_rngs(np.random.default_rng(s), n))
        for s in (1, 2)
    ]
    plan = try_plan(pipe, batch)
    assert results[0] is not results[1]
    assert not np.shares_memory(results[0], results[1])
    for seed, result in zip((1, 2), results):
        assert not _shares_an_arena_slot(plan, result)
        reference = pipe.run_batch_reference(
            batch, spawn_rngs(np.random.default_rng(seed), n)
        )
        assert np.array_equal(result, np.stack(reference))


@_CASES
def test_execute_delivers_through_out(case):
    """``out=`` allocates the caller's batch once, when the last stage
    runs; the plan writes it and returns it, with the arena's bits."""
    pipe, batch = case()
    n = len(batch)
    plan = try_plan(pipe, batch)
    arena = plan.execute(batch, spawn_rngs(np.random.default_rng(3), n)).copy()
    given = []

    def allocate(shape, dtype):
        given.append(np.full(shape, 7, dtype=dtype))
        return given[-1]

    got = plan.execute(
        batch, spawn_rngs(np.random.default_rng(3), n), out=allocate
    )
    assert len(given) == 1 and got is given[0]
    assert not _shares_an_arena_slot(plan, got)
    assert np.array_equal(got, arena)


def test_fused_noise_cast_allocates_its_arena_output_only_on_demand():
    """The streamed stage writes a caller's ``out=`` directly, so its
    float32 slot exists only once a caller asks for the arena result."""
    pipe, batch = _jpeg_case()
    clear_memo()
    plan = try_plan(pipe, batch)
    fused = plan.stages[-1]
    assert isinstance(fused, FusedNoiseCastStage)
    assert [name for name, _ in fused.slots()] == ["noisy_row"]
    pipe.run_batch_vectorized(batch, spawn_rngs(np.random.default_rng(0), 4))
    assert [name for name, _ in fused.slots()] == ["noisy_row"]
    plan.execute(batch, spawn_rngs(np.random.default_rng(0), 4))
    assert [name for name, _ in fused.slots()] == ["noisy_row", "out_f32"]


def test_one_worker_engine_bit_identical_to_serial():
    """In worker mode the plan's result is copied once into the ring;
    the bits are the serial engine's."""
    crop = 16
    pipe = image_pipeline(out_height=crop, out_width=crop)

    def loader(start, count):
        return _jpeg_blobs(count, 24, 24, seed=100 + start)

    serial = run_engine(pipe, loader, 6, 3, seed=4, num_workers=0)
    pooled = run_engine(
        pipe, loader, 6, 3, seed=4, num_workers=1,
        sample_nbytes=crop * crop * 3 * 4,
    )
    assert len(serial) == len(pooled) == 2
    for a, b in zip(serial, pooled):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)


#: Arena plus traced transient bytes of one batch-32 ``prep-image``
#: batch (256x256 JPEGs cropped to 224).  Measured 5.1 + 20.9 = 26.0 MB
#: with the streamed noise+cast tail; the batch-wide int16 and float32
#: slots and the copy-out it replaced read 33.7 + 19.4 = 53.1 MB.  Any
#: batch-sized buffer coming back (9.6 MB int16, 19.3 MB float32)
#: crosses the bound.
IMAGE_BATCH_MEMORY_BUDGET_MB = 32.0


def test_image_plan_batch_memory_budget():
    """``plan.arena_nbytes()`` plus the ``tracemalloc`` peak of one warmed
    batch-32 ``run_batch_vectorized`` stays under the budget.  Traced
    allocations, unlike RSS, do not depend on the allocator's mode."""
    n = 32
    rng = np.random.default_rng([1, 1])
    images = [
        synthesize_image(rng, 256, 256, int(rng.integers(0, 1000)))
        for _ in range(n)
    ]
    blobs = jpeg.encode_batch(images, quality=80)
    pipe = image_pipeline()
    clear_memo()  # an arena-result execute elsewhere would add out_f32
    for seed in range(2):
        pipe.run_batch_vectorized(blobs, spawn_rngs(np.random.default_rng(seed), n))
    plan = try_plan(pipe, blobs)
    rngs = spawn_rngs(np.random.default_rng(5), n)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = pipe.run_batch_vectorized(blobs, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, 224, 224, 3)
    total_mb = (plan.arena_nbytes() + peak - base) / 1e6
    assert total_mb < IMAGE_BATCH_MEMORY_BUDGET_MB, (
        f"arena {plan.arena_nbytes() / 1e6:.1f} MB + transient "
        f"{(peak - base) / 1e6:.1f} MB = {total_mb:.1f} MB"
    )


def test_plan_false_pins_per_op_path_bit_identically():
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(5)
    rngs = spawn_rngs(np.random.default_rng(4), 5)
    planned = pipe.run_batch_vectorized(blobs, rngs)
    rngs = spawn_rngs(np.random.default_rng(4), 5)
    per_op = pipe.run_batch_vectorized(blobs, rngs, plan=False)
    assert np.array_equal(planned, per_op)


def test_mixed_geometry_falls_back_bit_identically():
    """Raggedly-sized payloads cannot take the plan path but must still
    produce reference bits through the per-op fallback."""
    pipe = image_pipeline(out_height=16, out_width=16)
    blobs = _jpeg_blobs(2, 32, 32) + _jpeg_blobs(2, 40, 40, seed=8)
    assert try_plan(pipe, blobs) is None
    rngs = spawn_rngs(np.random.default_rng(7), 4)
    out = pipe.run_batch_vectorized(blobs, rngs)
    rngs = spawn_rngs(np.random.default_rng(7), 4)
    reference = pipe.run_batch_reference(blobs, rngs)
    for i, ref in enumerate(reference):
        assert np.array_equal(ref, out[i])


def test_pipeline_with_an_unplanned_op_takes_the_per_op_route():
    """No plan stage covers ``mfcc``: the compiler refuses the pipeline
    before it builds any stage, ``try_plan`` returns ``None``, and the
    batch takes the per-op route with the reference's bits."""
    pipe = PrepPipeline(audio_pipeline().ops + [Mfcc()], name="audio-mfcc")
    pcm = (
        np.clip(np.random.default_rng(5).normal(0, 0.2, (3, 8_000)), -1, 1)
        * 32767
    ).astype(np.int16)
    clear_memo()
    registry = obs.MetricsRegistry()
    with obs.session(metrics=registry):
        assert try_plan(pipe, pcm) is None
        with pytest.raises(PlanInapplicable, match="mfcc"):
            compile_plan(pipe, geometry_for_batch(pipe, pcm))
    assert "prep.plan_compile_total" not in registry.to_manifest()["counters"]
    out = pipe.run_batch_vectorized(
        pcm, spawn_rngs(np.random.default_rng(8), 3)
    )
    reference = pipe.run_batch_reference(
        pcm, spawn_rngs(np.random.default_rng(8), 3)
    )
    assert out.dtype == np.float32
    for i, ref in enumerate(reference):
        assert np.array_equal(ref, out[i]), f"sample {i} differs"


def test_standalone_stages_bind_their_arena_slots():
    """A crop, mirror or cast with no neighbour to fuse with compiles to
    its own stage; each reports its slots, the arena is their sum, and
    ``execute`` serves a view of the last slot.  A mirror that starts
    the plan flips in place, so the caller's batch is copied in first."""
    batch = np.stack(_images(3, 16, 16, seed=19))
    crop = PrepPipeline(
        [RandomCrop(out_height=8, out_width=8), CastToFloat()], name="crop"
    )
    plan = _assert_matches_reference(crop, batch, 3)
    assert [name for name, _ in plan.slots()] == ["cropped", "out_f32"]
    assert plan.arena_nbytes() == 3 * 8 * 8 * 3 * (1 + 4)
    mirror = PrepPipeline(
        [Mirror(probability=0.5), CastToFloat()], name="mirror"
    )
    plan = _assert_matches_reference(mirror, batch, 3)
    assert [name for name, _ in plan.slots()] == [
        "copy", "mirror_scratch", "out_f32"
    ]
    assert plan.arena_nbytes() == 3 * 768 + 768 + 3 * 768 * 4
    text = plan.describe()
    assert "[0] <copy-in>  slots[copy:uint8[3, 16, 16, 3]]" in text
    assert "[1] mirror  slots[mirror_scratch:uint8[16, 16, 3]]" in text
    assert "[2] cast  slots[out_f32:float32[3, 16, 16, 3]]" in text
    out = plan.execute(batch, spawn_rngs(np.random.default_rng(0), 3))
    assert np.shares_memory(out, plan.slots()[-1][1])


def test_plan_memoized_per_fingerprint_and_geometry():
    clear_memo()
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    plan1 = try_plan(pipe, blobs)
    plan2 = try_plan(pipe, blobs)
    assert plan1 is plan2
    # An identically-configured pipeline object shares the fingerprint…
    twin = image_pipeline(out_height=32, out_width=32)
    assert plan_fingerprint(
        twin, geometry_for_batch(twin, blobs)
    ) == plan_fingerprint(pipe, geometry_for_batch(pipe, blobs))
    assert try_plan(twin, blobs) is plan1
    # …while a different geometry compiles its own plan.
    other = _jpeg_blobs(5)
    assert try_plan(pipe, other) is not plan1


def test_plan_compile_reports_span_and_metrics():
    clear_memo()
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    with obs.session(tracer=tracer, metrics=registry):
        plan = try_plan(pipe, blobs)
    assert plan.compile_seconds > 0
    assert any(s.name == "prep.plan_compile" for s in tracer.spans)
    manifest = registry.to_manifest()
    assert manifest["counters"].get("prep.plan_compile_total") == 1
    assert manifest["histograms"]["prep.plan_compile_ms"]["count"] == 1


def test_describe_names_fusions_hoists_and_arena():
    pipe = image_pipeline(out_height=32, out_width=32)
    plan = try_plan(pipe, _jpeg_blobs(4))
    text = plan.describe()
    assert "[0] decode_jpeg+random_crop+mirror " in text
    assert "decoded:uint8[4, 32, 32, 3]" in text
    assert "gaussian_noise+cast" in text
    # Every RJPG blob carries its own Huffman tables: nothing to hoist.
    assert "hoisted" not in plan.stages[0].describe()
    assert "noise_table" in text
    assert "lockstep_min" in text
    assert "transform_chunk=28" in text
    assert "arena:" in text
    atext = try_plan(
        audio_pipeline(),
        np.zeros((2, 4_000), dtype=np.int16),
    ).describe()
    assert "hann_window" in atext
    assert "mel_bank" in atext


def test_png_decode_stage_claims_no_hoisted_invariant():
    """Every RPNG stream carries its own Huffman tables, so there is no
    per-batch constant for the PNG decode stage to hoist."""
    pipe = image_pipeline(out_height=32, out_width=32, source_format="png")
    blobs = [png.encode(img) for img in _images(2, 48, 48, seed=9)]
    plan = try_plan(pipe, blobs)
    decode = plan.stages[0]
    assert isinstance(decode, DecodePngStage)
    assert decode.invariants == ()
    assert "hoisted" not in decode.describe()


def test_standalone_noise_stage_hoists_the_table():
    pipe = PrepPipeline(
        [GaussianNoise(sigma=2.0), Mirror(probability=0.5)], name="noise-first"
    )
    plan = try_plan(pipe, np.stack(_images(2, 8, 8)))
    assert isinstance(plan.stages[0], NoiseStage)
    assert "hoisted[noise_table]" in plan.stages[0].describe()


@pytest.mark.parametrize("fused", [True, False], ids=["noise+cast", "noise"])
def test_noise_stage_transient_memory_is_per_sample(fused):
    """At batch 32 x 224x224x3 a noise stage's peak traced allocation
    stays within a few of one sample's intp index array (1.2 MB): the
    table gather runs per sample, because a batch-wide ``np.take`` would
    materialize a 38.5 MB intp index array.  The stage's own arena
    absorbs every batch-sized buffer."""
    n, shape = 32, (224, 224, 3)
    geometry = PlanGeometry(n, "array", shape, "uint8")
    noise = GaussianNoise(sigma=4.0)
    if fused:
        stage = FusedNoiseCastStage(noise, CastToFloat(), geometry, shape)
    else:
        stage = NoiseStage(noise, geometry, shape)
    batch = np.full((n,) + shape, 128, dtype=np.uint8)
    stage.run(batch, spawn_rngs(np.random.default_rng(0), n))
    rngs = spawn_rngs(np.random.default_rng(1), n)
    sample_index_bytes = int(np.prod(shape)) * np.dtype(np.intp).itemsize
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        stage.run(batch, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * sample_index_bytes, (
        f"peak transient {peak - base} bytes; one sample's index array "
        f"is {sample_index_bytes}"
    )


def test_execute_batch_size_mismatch_raises_before_any_stage():
    pipe = image_pipeline(out_height=32, out_width=32)
    blobs = _jpeg_blobs(4)
    plan = try_plan(pipe, blobs)
    with pytest.raises(PlanInapplicable):
        plan.execute(blobs[:3], spawn_rngs(np.random.default_rng(0), 3))
    with pytest.raises(DataprepError):
        plan.execute(blobs, spawn_rngs(np.random.default_rng(0), 3))


def test_plan_does_not_mutate_caller_batch():
    pipe = PrepPipeline(
        [
            RandomCrop(out_height=8, out_width=8),
            Mirror(probability=0.5),
            GaussianNoise(sigma=2.0),
            CastToFloat(),
        ],
        name="array-prep",
    )
    batch = np.stack(_images(3, 16, 16, seed=13))
    before = batch.copy()
    rngs = spawn_rngs(np.random.default_rng(1), 3)
    pipe.run_batch_vectorized(batch, rngs)
    assert np.array_equal(batch, before)


def test_array_input_plan_matches_reference():
    pipe = PrepPipeline(
        [
            RandomCrop(out_height=10, out_width=10),
            Mirror(probability=0.5),
            GaussianNoise(sigma=3.0),
            CastToFloat(),
        ],
        name="array-prep",
    )
    batch = np.stack(_images(5, 20, 20, seed=17))
    _assert_matches_reference(pipe, batch, 5)


@pytest.mark.parametrize(
    "ops",
    [
        lambda: [GaussianNoise(sigma=2.0), CastToFloat(scale=np.float64(1 / 255))],
        lambda: [CastToFloat(scale=np.float64(1 / 255))],
    ],
    ids=["noise+cast", "cast"],
)
def test_numpy_scalar_cast_scale_matches_reference(ops):
    """A NumPy float64 ``scale`` is stored as a Python float, so the
    oracle stays float32 like the plan stages, and the plan fingerprint
    is the one a Python-float scale gives."""
    pipe = PrepPipeline(ops(), name="cast-scale")
    batch = np.stack(_images(3, 8, 8, seed=21))
    plan = _assert_matches_reference(pipe, batch, 3)
    out = plan.execute(batch, spawn_rngs(np.random.default_rng(0), 3))
    assert out.dtype == np.float32
    assert type(pipe.ops[-1].scale) is float
    plain = PrepPipeline(
        ops()[:-1] + [CastToFloat(scale=1 / 255)], name="cast-scale"
    )
    assert plan.fingerprint == plan_fingerprint(plain, plan.geometry)
