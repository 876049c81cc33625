"""Same-host speed-ratio floors: each fast path against its own reference.

Absolute rates live in ``perfbench`` under the bounds in
``BENCHMARK.json``.  What this module keeps are the ratios between two
paths timed on the same host in the same run, which hold whatever the
host's speed:

* vectorized JPEG entropy decode ≥5× the symbol-at-a-time reference
  (256×256 photo-like image);
* segmented lock-step batch decode ≥1.3× the per-image walk on a
  32-image batch of corpus-like 256×256 JPEGs — the measurement behind
  the codec's lock-step crossover;
* warm-cache replay of the Figure 21 grid ≥3× serial uncached compute,
  bit-identical;
* the vectorized sweep kernel ≥5× the scalar engine on the 576-point
  uncached :func:`sweep_cold_grid`;
* the batched image prep path ≥5× the per-sample reference
  (256 × 256² JPEG batch);
* the compiled prep plan ≥1.05× the per-op vectorized path on the
  decode-bound JPEG pipeline and ≥1.3× on the audio pipeline (measured
  in a fresh process, see :func:`audio_plan_speedup`);
* windowed JPEG decode (224 of 256, mirrored into the slot) ≥1.05× the
  full decode plus the plan's crop-and-mirror copy, batch 32.
* the lock-step entropy walk alone ≥3.5× ``decode_plane`` on every plane
  of the same 32 corpus-like 256×256 frames.
* the noise stage's 16-bit draws as raw PCG64 words ≥1.5× ``integers``
  for a batch of 32 224×224×3 samples.

Every path pair is checked bit-identical **before** anything is timed:
a fast path that is wrong never produces a number.  Plain pytest, no
baseline file::

    PYTHONPATH=src python -m pytest benchmarks/bench_speed_floors.py -q
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List

import numpy as np

MIN_DECODE_SPEEDUP = 5.0
MIN_WARM_REPLAY_SPEEDUP = 3.0
MIN_COLD_KERNEL_SPEEDUP = 5.0
MIN_PREP_SPEEDUP = 5.0
#: Shared entropy decode bounds the JPEG plan ratio (Amdahl): measured
#: ~1.25× warm, the floor holds margin for host noise.
MIN_JPEG_PLAN_SPEEDUP = 1.05
MIN_AUDIO_PLAN_SPEEDUP = 1.3
#: Ten fresh-process probes on a 2-core VM read 1.86-2.02x.
MIN_SEGMENTED_LOCKSTEP_SPEEDUP = 1.3
#: Six fresh-process runs of 30 interleaved rounds on a 2-core VM read
#: 1.11-1.22x; the shared entropy walk is about half of either side.
MIN_WINDOWED_DECODE_SPEEDUP = 1.05
#: Raw PCG64 words against ``integers`` for the noise stage's 16-bit
#: draws, 32 samples of 224x224x3: about 2.3x on a 2-core VM.
MIN_NOISE_RAW_DRAW_SPEEDUP = 1.5
#: The entropy stage alone at batch 32.  Six fresh-process runs of 30
#: interleaved rounds on a 2-core VM read 4.07-5.17x with two-symbol
#: rows; the one-symbol walk before them read 3.13-3.31x.
MIN_LOCKSTEP_WALK_SPEEDUP = 3.5


# -- timing helpers -----------------------------------------------------------


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls to ``fn``, in seconds: the
    run least disturbed by the scheduler."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_ratio(
    fast: Callable[[], object], slow: Callable[[], object], repeats: int
) -> float:
    """``min(slow) / min(fast)`` timed interleaved so slow drift of the
    host perturbs both minima equally — the ratio is the measurement,
    not either absolute time.  Two untimed warm-up rounds of both paths
    first (arena pages and allocator pools need a few calls to settle),
    then one repeat of each per round with the order alternating per
    round so within-round drift cannot systematically favor one side."""
    for _ in range(2):
        fast()
        slow()
    fast_s = slow_s = math.inf
    for i in range(repeats):
        pair = (fast, slow) if i % 2 == 0 else (slow, fast)
        halves = {}
        for fn in pair:
            t0 = time.perf_counter()
            fn()
            halves[fn] = time.perf_counter() - t0
        fast_s = min(fast_s, halves[fast])
        slow_s = min(slow_s, halves[slow])
    return slow_s / fast_s


# -- inputs -------------------------------------------------------------------


def bench_image(height: int = 256, width: int = 256, seed: int = 7) -> np.ndarray:
    """The photo-like test image the codec and prep floors refer to.

    Smooth gradient + band-limited texture + sensor noise: compresses at
    ~17:1 with the package's JPEG at quality 75, squarely in the range
    real photographs hit, so the entropy stage sees a photo-typical
    symbol load rather than a near-empty one.
    """
    rng = np.random.default_rng(seed)
    gx = np.linspace(0, 255, width)
    gy = np.linspace(0, 255, height)
    base = gy[:, None, None] * 0.35 + gx[None, :, None] * 0.35
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    texture = (
        18 * np.sin(2 * np.pi * xx / 9.0 + yy / 17.0)
        + 14 * np.sin(2 * np.pi * yy / 7.0)
    )[..., None]
    img = base + 60.0 + texture + rng.normal(0, 10, (height, width, 3))
    return np.clip(img, 0, 255).astype(np.uint8)


def _bench_jpeg_blobs(size: int, batch: int) -> List[bytes]:
    """Photo-like quality-75 JPEG payloads for the prep floors
    (batch-encoded — byte-identical to per-image encode, just faster to
    set up)."""
    from repro.dataprep import jpeg

    images = [bench_image(size, size, seed=300 + i) for i in range(batch)]
    return jpeg.encode_batch(images, quality=75)


def sweep_cold_grid():
    """The uncached grid of the cold-kernel floor (8 workloads × 8
    architecture variants × the 9-step scale ladder = 576 points).

    Every Table I workload plus the CNN-Video extension row, crossed
    with the full architecture ladder (baseline, +Acc GPU/FPGA, +P2P,
    +Gen4, clustered, clustered+pool) and a tree-sync TrainBox variant
    so all three sync closed forms are exercised.
    """
    import dataclasses

    from repro.core.config import ArchitectureConfig, PrepDevice, SyncStrategy
    from repro.core.sweeps import SCALE_LADDER, SweepSpec
    from repro.workloads.registry import EXTENSION_WORKLOADS, TABLE_I

    workloads = tuple(TABLE_I.values()) + tuple(EXTENSION_WORKLOADS.values())
    archs = (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.baseline_acc(PrepDevice.GPU),
        ArchitectureConfig.baseline_acc(),
        ArchitectureConfig.baseline_acc_p2p(),
        ArchitectureConfig.baseline_acc_p2p_gen4(),
        ArchitectureConfig.trainbox(prep_pool=False),
        ArchitectureConfig.trainbox(),
        dataclasses.replace(
            ArchitectureConfig.trainbox(),
            name="trainbox+tree",
            sync=SyncStrategy.TREE,
        ),
    )
    return SweepSpec(workloads=workloads, archs=archs, scales=SCALE_LADDER)


# -- prep ratios --------------------------------------------------------------


def audio_plan_speedup() -> float:
    """Compiled-plan / per-op-vectorized throughput ratio for the audio
    pipeline on a 32-utterance stack of one-second int16 PCM.

    The audio chain has no entropy-decode stage, so this is where the
    arena shows its full effect — but the effect is allocator-state
    dependent: in a fresh process (a dedicated audio prep worker at
    startup) the per-op path's large float64 temporaries are mmap-backed
    and refault every batch, and the plan measures ~1.5x; in a process
    that has already churned big allocations, glibc's dynamic mmap
    threshold makes those temporaries cheap heap reuse and the two paths
    converge (~1.0x).  So the floor is measured in a fresh process.
    Identity against the per-op path and the per-sample reference is
    asserted before timing.
    """
    from repro.dataprep.ops_audio import audio_pipeline
    from repro.dataprep.pipeline import spawn_rngs
    from repro.dataprep.plan import compile_plan, geometry_for_batch

    # 30 interleaved rounds: at 15, one combined-suite run read under
    # the floor on a 2-core VM while isolated runs cleared it.
    batch, n_samples, reference_samples, repeats = 32, 16_000, 4, 30
    pipe = audio_pipeline()
    noise = np.random.default_rng(5).normal(0, 0.2, (batch, n_samples))
    pcm = (np.clip(noise, -1, 1) * 32767).astype(np.int16)
    plan = compile_plan(pipe, geometry_for_batch(pipe, pcm))

    rngs = spawn_rngs(np.random.default_rng(0), batch)
    planned = plan.execute(pcm, rngs).copy()
    rngs = spawn_rngs(np.random.default_rng(0), batch)
    assert np.array_equal(planned, pipe.run_batch_vectorized(pcm, rngs, plan=False))
    rngs = spawn_rngs(np.random.default_rng(0), batch)
    reference = pipe.run_batch_reference(
        pcm[:reference_samples], rngs[:reference_samples]
    )
    for i, ref_out in enumerate(reference):
        assert np.array_equal(ref_out, planned[i]), f"sample {i} differs"

    def run_planned():
        plan.execute(pcm, spawn_rngs(np.random.default_rng(0), batch))

    def run_per_op():
        rngs = spawn_rngs(np.random.default_rng(0), batch)
        pipe.run_batch_vectorized(pcm, rngs, plan=False)

    return _interleaved_ratio(run_planned, run_per_op, repeats)


def test_audio_plan_speedup_in_fresh_process():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from benchmarks.bench_speed_floors import audio_plan_speedup; "
            "print(audio_plan_speedup())",
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    speedup = float(out.stdout.split()[-1])
    print(f"audio plan vs per-op (fresh process): {speedup:.2f}x")
    assert speedup >= MIN_AUDIO_PLAN_SPEEDUP


def test_batched_prep_speedup_over_reference():
    """256-image 256×256 JPEG batch: the batched path against the kept
    per-sample reference (symbol-at-a-time entropy decode, one ``run``
    per sample).  The reference is timed on 8 images and scaled
    linearly — it is a strict per-sample loop, so its cost is linear by
    construction — because all 256 through it would take minutes."""
    from repro.dataprep.jpeg import codec
    from repro.dataprep.ops_image import DecodeJpeg, image_pipeline
    from repro.dataprep.pipeline import PrepPipeline, spawn_rngs

    class ReferenceDecodeJpeg(DecodeJpeg):
        def apply(self, data, rng):
            return codec.decode_reference(bytes(data))

    size, batch, reference_samples, repeats = 256, 256, 8, 5
    crop = size - 32
    fast_pipe = image_pipeline(out_height=crop, out_width=crop)
    ref_pipe = PrepPipeline(
        [ReferenceDecodeJpeg(), *image_pipeline(crop, crop).ops[1:]],
        name=fast_pipe.name,
    )
    blobs = _bench_jpeg_blobs(size, batch)

    batched = fast_pipe.run_batch_vectorized(
        blobs, spawn_rngs(np.random.default_rng(0), batch)
    )
    reference = ref_pipe.run_batch_reference(
        blobs[:reference_samples],
        spawn_rngs(np.random.default_rng(0), batch)[:reference_samples],
    )
    for i, ref_out in enumerate(reference):
        assert np.array_equal(ref_out, batched[i]), f"sample {i} differs"

    def run_reference():
        rngs = spawn_rngs(np.random.default_rng(0), reference_samples)
        ref_pipe.run_batch_reference(blobs[:reference_samples], rngs)

    def run_batched():
        rngs = spawn_rngs(np.random.default_rng(0), batch)
        fast_pipe.run_batch_vectorized(blobs, rngs)

    ref_s = best_of(run_reference, repeats) / reference_samples
    batched_s = best_of(run_batched, repeats) / batch
    speedup = ref_s / batched_s
    print(f"batched prep vs per-sample reference: {speedup:.2f}x")
    assert speedup >= MIN_PREP_SPEEDUP


def test_jpeg_plan_speedup_over_per_op_path():
    """256-image 256×256 JPEG batch: compiled plan against the per-op
    vectorized path.  This isolates what whole-pipeline fusion, hoisted
    invariants and the pooled arena buy on top of already-vectorized
    ops; the plan is checked against the per-op path (full batch) and
    the per-sample reference (4 samples) first."""
    from repro.dataprep.ops_image import image_pipeline
    from repro.dataprep.pipeline import spawn_rngs
    from repro.dataprep.plan import compile_plan, geometry_for_batch

    size, batch, reference_samples, repeats = 256, 256, 4, 8
    crop = size - 32
    pipe = image_pipeline(out_height=crop, out_width=crop)
    blobs = _bench_jpeg_blobs(size, batch)
    plan = compile_plan(pipe, geometry_for_batch(pipe, blobs))

    planned = plan.execute(blobs, spawn_rngs(np.random.default_rng(0), batch)).copy()
    per_op = pipe.run_batch_vectorized(
        blobs, spawn_rngs(np.random.default_rng(0), batch), plan=False
    )
    assert np.array_equal(planned, per_op)
    reference = pipe.run_batch_reference(
        blobs[:reference_samples],
        spawn_rngs(np.random.default_rng(0), batch)[:reference_samples],
    )
    for i, ref_out in enumerate(reference):
        assert np.array_equal(ref_out, planned[i]), f"sample {i} differs"

    def run_planned():
        plan.execute(blobs, spawn_rngs(np.random.default_rng(0), batch))

    def run_per_op():
        rngs = spawn_rngs(np.random.default_rng(0), batch)
        pipe.run_batch_vectorized(blobs, rngs, plan=False)

    speedup = _interleaved_ratio(run_planned, run_per_op, repeats)
    print(f"JPEG plan vs per-op: {speedup:.2f}x")
    assert speedup >= MIN_JPEG_PLAN_SPEEDUP


# -- codec ratio --------------------------------------------------------------


def test_jpeg_fast_decode_speedup_over_reference():
    """256×256 photo-like image: vectorized entropy decode against the
    symbol-at-a-time reference, timed interleaved."""
    from repro.dataprep.jpeg import codec

    blob = codec.encode(bench_image(256, 256), quality=75)
    assert np.array_equal(codec.decode(blob), codec.decode_reference(blob))
    fast = ref = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        codec.decode(blob)
        fast = min(fast, time.perf_counter() - t0)
        t0 = time.perf_counter()
        codec.decode_reference(blob)
        ref = min(ref, time.perf_counter() - t0)
    speedup = ref / fast
    print(f"JPEG fast decode vs reference: {speedup:.2f}x")
    assert speedup >= MIN_DECODE_SPEEDUP


def test_jpeg_segmented_lockstep_speedup_at_batch_32():
    """32 corpus-like 256×256 JPEGs (the ``prep-image`` batch):
    ``decode_batch`` with the segmented lock-step entropy walk against
    the same call with the per-image walk, timed interleaved.  Both
    share the batched transform stage, so the ratio is the whole-decode
    effect of the walk the codec's crossover routes batch 32 to.  Every
    image is checked against per-image ``decode`` first."""
    from repro.dataprep.jpeg import codec
    from repro.datasets.imagenet import synthesize_image

    batch, repeats = 32, 15
    rng = np.random.default_rng([11, 1])
    images = [
        synthesize_image(rng, 256, 256, int(rng.integers(0, 1000)))
        for _ in range(batch)
    ]
    blobs = codec.encode_batch(images, quality=80)
    assert codec.lockstep_min_images(32 * 32) <= batch
    lockstep = codec.decode_batch(blobs)
    for i, blob in enumerate(blobs):
        assert np.array_equal(lockstep[i], codec.decode(blob)), f"image {i}"

    def per_image_walk():
        # Raise the crossover past the batch for this call only.
        calibrated = codec._LOCKSTEP_MIN_IMAGES
        codec._LOCKSTEP_MIN_IMAGES = batch + 1
        try:
            codec.decode_batch(blobs)
        finally:
            codec._LOCKSTEP_MIN_IMAGES = calibrated

    speedup = _interleaved_ratio(
        lambda: codec.decode_batch(blobs), per_image_walk, repeats
    )
    print(f"JPEG segmented lock-step vs per-image walk, batch 32: {speedup:.2f}x")
    assert speedup >= MIN_SEGMENTED_LOCKSTEP_SPEEDUP


def test_jpeg_lockstep_walk_speedup_at_batch_32():
    """The entropy stage alone, 32 corpus-like 256×256 frames: the
    codec's group walk (``_entropy_decode_group``: one lock-step walk
    over the luma streams, one over the chroma streams) against
    ``entropy_fast.decode_plane`` on every plane of every frame, timed
    interleaved.  Every plane is checked bit-identical first."""
    from repro.dataprep.jpeg import codec, entropy_fast
    from repro.datasets.imagenet import synthesize_image

    batch, repeats = 32, 30
    rng = np.random.default_rng([17, 1])
    images = [
        synthesize_image(rng, 256, 256, int(rng.integers(0, 1000)))
        for _ in range(batch)
    ]
    frames = [codec._parse_frame(b) for b in codec.encode_batch(images, quality=80)]
    geometry = codec._plane_geometry(frames[0].subsample, 256, 256)

    def per_image_walk():
        return [
            codec._entropy_decode_planes(f, geometry, entropy_fast.decode_plane)
            for f in frames
        ]

    def group_walk():
        return codec._entropy_decode_group(frames, geometry)

    for i, (got, want) in enumerate(zip(group_walk(), per_image_walk())):
        for plane, expected in zip(got, want):
            assert np.array_equal(plane, expected), f"image {i}"
    speedup = _interleaved_ratio(group_walk, per_image_walk, repeats)
    print(f"JPEG lock-step entropy walk vs per-image walk, batch 32: {speedup:.2f}x")
    assert speedup >= MIN_LOCKSTEP_WALK_SPEEDUP


def test_jpeg_windowed_decode_speedup():
    """32 corpus-like 256×256 JPEGs cropped to 224 (the ``prep-image``
    batch): ``decode_batch`` with a crop window per image, mirrored into
    the slot, against the full decode followed by the crop-and-mirror
    copy the plan runs for non-JPEG sources (``FusedCropMirrorStage``),
    timed interleaved on the same windows.  Both slots are checked
    bit-identical first."""
    from repro.dataprep.jpeg import codec
    from repro.dataprep.ops_image import Mirror, RandomCrop
    from repro.dataprep.pipeline import spawn_rngs
    from repro.dataprep.plan import FusedCropMirrorStage, PlanGeometry
    from repro.datasets.imagenet import synthesize_image

    # 30 rounds: at 15, one run of six read 1.00x on a 2-core VM.
    batch, size, crop_size, repeats = 32, 256, 224, 30
    rng = np.random.default_rng([13, 1])
    images = [
        synthesize_image(rng, size, size, int(rng.integers(0, 1000)))
        for _ in range(batch)
    ]
    blobs = codec.encode_batch(images, quality=80)
    crop, mirror = RandomCrop(crop_size, crop_size), Mirror()
    geometry = PlanGeometry(batch, "array", (size, size, 3), "uint8")
    crop_copy = FusedCropMirrorStage(crop, mirror, geometry, (size, size, 3))
    full = np.empty((batch, size, size, 3), dtype=np.uint8)
    windowed = np.empty((batch, crop_size, crop_size, 3), dtype=np.uint8)

    def rngs():
        return spawn_rngs(np.random.default_rng(0), batch)

    def decode_then_copy():
        codec.decode_batch(blobs, out=full)
        return crop_copy.run(full, rngs())

    def decode_windows():
        draws = rngs()
        tops, lefts = crop.offsets((size, size), draws)
        flips = mirror.coin_flips(draws)
        windows = [
            (int(t), int(l), crop_size, crop_size, bool(f))
            for t, l, f in zip(tops, lefts, flips)
        ]
        return codec.decode_batch(blobs, out=windowed, windows=windows)

    assert np.array_equal(decode_windows(), decode_then_copy())
    speedup = _interleaved_ratio(decode_windows, decode_then_copy, repeats)
    print(f"JPEG windowed decode vs full decode + crop copy, batch 32: {speedup:.2f}x")
    assert speedup >= MIN_WINDOWED_DECODE_SPEEDUP


def test_noise_raw_draw_speedup():
    """The noise draws of a ``prep-image`` batch (32 samples of
    224×224×3 on their ``sample_rng`` streams): ``uniform_uint16``'s raw
    PCG64 words against ``rng.integers(0, 65536, dtype=uint16)``, timed
    interleaved.  Values and the generator state after the draw are
    checked equal first."""
    from repro.dataprep.ops_image import uniform_uint16
    from repro.dataprep.pipeline import sample_rng

    batch, shape, repeats = 32, (224, 224, 3), 30
    for i in range(batch):
        raw, ref = sample_rng(1, i), sample_rng(1, i)
        assert np.array_equal(
            uniform_uint16(raw, shape),
            ref.integers(0, 65536, size=shape, dtype=np.uint16),
        )
        assert raw.bit_generator.state == ref.bit_generator.state
    raw_streams = [sample_rng(2, i) for i in range(batch)]
    ref_streams = [sample_rng(2, i) for i in range(batch)]

    # Each draw is dropped before the next, as the noise stage drops its
    # draws: keeping all 32 would time fresh-page faults, not draws.
    def raw_draws():
        for rng in raw_streams:
            uniform_uint16(rng, shape)

    def integer_draws():
        for rng in ref_streams:
            rng.integers(0, 65536, size=shape, dtype=np.uint16)

    speedup = _interleaved_ratio(raw_draws, integer_draws, repeats)
    print(f"noise draws, raw PCG64 words vs integers, batch 32: {speedup:.2f}x")
    assert speedup >= MIN_NOISE_RAW_DRAW_SPEEDUP


# -- sweep ratios -------------------------------------------------------------


def test_warm_cache_replay_speedup(tmp_path):
    """The Figure 21 grid served from a warmed persistent cache against
    serial uncached compute (the in-process memo is cleared inside the
    timed region).  The replay must return every float bit for bit."""
    from repro.cache import ResultCache, clear_memo
    from repro.core.sweeps import figure21_spec, run_sweep

    spec = figure21_spec()
    clear_memo()
    serial = run_sweep(spec, n_jobs=1)
    run_sweep(spec, n_jobs=1, cache=ResultCache(tmp_path))  # warm the cache
    cached = run_sweep(spec, n_jobs=2, cache=ResultCache(tmp_path))
    assert cached.cache_hits == len(spec.points())
    assert cached.points == serial.points
    assert cached.results == serial.results  # frozen dataclasses: exact

    def serial_uncached():
        clear_memo()
        run_sweep(spec, n_jobs=1)

    def warm_cached():
        run_sweep(spec, n_jobs=2, cache=ResultCache(tmp_path))

    speedup = best_of(serial_uncached, 3) / best_of(warm_cached, 3)
    print(f"Figure 21 warm-cache replay vs serial uncached: {speedup:.1f}x")
    assert speedup >= MIN_WARM_REPLAY_SPEEDUP


def test_cold_sweep_kernel_speedup_over_scalar_engine():
    """The 576-point uncached grid: the batch kernel must take every
    point and match the scalar engine's fingerprint point for point
    before either is timed (the memo is cleared inside each timed
    region, so every repeat pays full construction)."""
    from repro.cache import clear_memo, fingerprint
    from repro.core.sweeps import run_sweep

    spec = sweep_cold_grid()
    points = spec.points()
    assert len(points) == 576

    clear_memo()
    batched = run_sweep(spec, n_jobs=1, batch=True)
    assert batched.batch_points == len(points), [
        d for d in batched.dispatch if d != "batch"
    ][:3]
    clear_memo()
    scalar = run_sweep(spec, n_jobs=1, batch=False)
    for point, rb, rs in zip(points, batched.results, scalar.results):
        assert fingerprint(rb.to_dict()) == fingerprint(rs.to_dict()), (
            f"{point.workload.name}/{point.arch.name}/{point.scale}"
        )

    def cold(batch):
        clear_memo()
        run_sweep(spec, n_jobs=1, batch=batch)

    # Interleaved over 30 rounds: three best-of samples per side once
    # read 4.92x on a noisy 2-core host while reruns read 5.9-7.1x.
    speedup = _interleaved_ratio(lambda: cold(True), lambda: cold(False), 30)
    print(f"cold grid batch kernel vs scalar engine: {speedup:.2f}x")
    assert speedup >= MIN_COLD_KERNEL_SPEEDUP
