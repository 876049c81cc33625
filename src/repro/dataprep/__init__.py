"""Functional data-preparation substrate and its cost model.

This package implements — for real, on numpy arrays — every operation the
paper offloads to its FPGA data preparation accelerators:

* the **image pipeline** of Table II: JPEG decode (our own baseline codec
  in :mod:`repro.dataprep.jpeg`), random crop, mirror, Gaussian noise and
  type cast (:mod:`repro.dataprep.ops_image`);
* the **audio pipeline** of Table III: STFT spectrogram, Mel filter bank,
  SpecAugment-style masking and normalization
  (:mod:`repro.dataprep.ops_audio`, :mod:`repro.dataprep.audio`).

Operations compose into a :class:`~repro.dataprep.pipeline.PrepPipeline`
which both *executes* (for correctness tests and the accuracy experiment
of Figure 5) and *prices itself* through the cost model in
:mod:`repro.dataprep.cost` (for the system simulator).  Keeping execution
and pricing on the same object is what grounds the simulator: the cycle
constants are calibrated once, per operation kind, and every architecture
configuration consumes them through device profiles.

Execution has two faces with a bit-identity contract between them: the
per-sample reference path (``PrepOp.apply`` / ``PrepPipeline.run``) and
the batched path (``apply_batch`` / ``run_batch``) driven by per-sample
spawned RNG streams.  :mod:`repro.dataprep.engine` scales the batched
path across worker processes with shared-memory handoff — still
bit-identical to serial execution.

The names below load their submodule on first use, so the simulator,
which imports only the cost model and the op descriptions, never loads
the codecs or the engine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cost": (
        "CPU_PROFILE",
        "FPGA_PROFILE",
        "GPU_PROFILE",
        "DeviceProfile",
        "OpCost",
        "PipelineCost",
        "profile_by_name",
    ),
    "chaos": ("ChaosSpec", "corrupt_payload", "wrap_loader"),
    "engine": (
        "PreparedBatch",
        "PrepEngine",
        "ResilienceConfig",
        "ResilienceReport",
        "ShardSpec",
        "make_shards",
        "prepare_shard",
        "prepare_shard_salvaging",
        "run_engine",
    ),
    "pipeline": ("PrepPipeline", "SampleSpec", "sample_rng", "spawn_rngs"),
    "ops_image": (
        "CastToFloat",
        "DecodeJpeg",
        "DecodePng",
        "GaussianNoise",
        "Mirror",
        "RandomCrop",
        "image_pipeline",
    ),
    "ops_audio": (
        "MelFilterBank",
        "Mfcc",
        "Normalize",
        "SpecMasking",
        "Spectrogram",
        "TimeWarp",
        "audio_pipeline",
    ),
    "ops_batch": ("BatchOp", "Ricap", "apply_batch_op"),
    "ops_video": (
        "ClipCast",
        "ClipCrop",
        "DecodeVideo",
        "TemporalSubsample",
        "video_pipeline",
    ),
})
