"""Compiled prep plans: whole-pipeline fusion over pooled arenas.

PR 1/4 made each op's ``apply_batch`` fast *in isolation*; every stage
still materialized a fresh full-batch intermediate.  This module
compiles a :class:`~repro.dataprep.pipeline.PrepPipeline` plus a batch
geometry into an executable :class:`PrepPlan` that converts that per-op
speed into pipeline-level speed (the FFCV insight):

* **fusion** — adjacent element-wise ops collapse into single passes
  (after a JPEG decode, ``random_crop``+``mirror`` fold into the decode,
  which transforms only each crop window and writes it mirrored into
  the slot; after any other source they become one strided per-sample
  copy; ``gaussian_noise``+``cast`` share one int16 buffer and never
  round-trip through uint8);
* **invariant hoisting** — per-batch constants (the noise table, mel
  banks, Hann windows, crop index layouts) are bound at compile time,
  outside the batch loop;
* **pooled arenas** — every intermediate is a pre-sized slot allocated
  at compile time, so steady-state ``execute()`` calls allocate nothing
  beyond codec-internal temporaries that are freed within the call
  (``tests/dataprep/test_plan.py`` pins the net growth to ~zero).

Plans are compiled once per (pipeline fingerprint, geometry) and
memoized through :mod:`repro.cache`, so each process — including every
:class:`~repro.dataprep.engine.PrepEngine` worker — pays the compile
exactly once; the compile is traced as a ``prep.plan_compile`` span and
metric via :mod:`repro.obs`.

Determinism contract: ``PrepPlan.execute(batch, rngs)`` is bit-identical
to ``PrepPipeline.run_batch_reference(batch, rngs)`` on the same
per-sample streams.  Each fused stage draws from ``rngs[i]`` exactly the
values, in exactly the order, sample ``i``'s per-sample path would draw
(streams are independent, so reordering draws *across* samples is safe;
reordering *within* a sample's stream is not, and no stage does).

``execute`` returns a view of the plan's output slot — valid until the
next ``execute`` on the same plan.  Callers that need an owned array
(e.g. ``run_batch_vectorized``) copy it.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import cache, obs
from repro.errors import DataprepError
from repro.dataprep import ops_audio, ops_image
from repro.dataprep.audio import mel as melmod, stft as stftmod
from repro.dataprep.jpeg import codec as jpeg_codec
from repro.dataprep.ops_image import add_table_noise, noise_table
from repro.dataprep.pipeline import PrepPipeline, SampleSpec
from repro.dataprep.png import codec as png_codec

__all__ = [
    "PlanGeometry",
    "PlanInapplicable",
    "PrepPlan",
    "compile_plan",
    "geometry_for_batch",
    "plan_fingerprint",
    "try_plan",
]


class PlanInapplicable(DataprepError):
    """This pipeline/batch combination cannot take the planned path
    (ragged geometry, unknown payloads, …); callers fall back to the
    per-op vectorized path."""


@dataclass(frozen=True)
class PlanGeometry:
    """The batch geometry a plan is specialized to.

    ``input_kind`` is the payload representation entering the pipeline
    (``jpeg``/``png`` blobs or an array kind); ``sample_shape`` is the
    *decoded* per-sample shape for blob inputs, the raw per-sample shape
    otherwise.  ``dtype`` is the input array dtype (``"bytes"`` for
    blobs).
    """

    batch_size: int
    input_kind: str
    sample_shape: Tuple[int, ...]
    dtype: str


def geometry_for_batch(pipeline: PrepPipeline, batch: Any) -> PlanGeometry:
    """Infer the :class:`PlanGeometry` of ``batch`` entering ``pipeline``.

    Raises :class:`PlanInapplicable` for batches a plan cannot be
    specialized to (empty, ragged shapes, unrecognized payloads).
    """
    n = len(batch)
    if n == 0:
        raise PlanInapplicable("cannot plan an empty batch")
    first_op = pipeline.ops[0]
    if isinstance(first_op, ops_image.DecodeJpeg):
        shapes = {_jpeg_decoded_shape(b) for b in batch}
        if len(shapes) != 1:
            raise PlanInapplicable(f"mixed JPEG geometries: {sorted(shapes)}")
        return PlanGeometry(n, "jpeg", shapes.pop(), "bytes")
    if isinstance(first_op, ops_image.DecodePng):
        shapes = {_png_decoded_shape(b) for b in batch}
        if len(shapes) != 1:
            raise PlanInapplicable(f"mixed PNG geometries: {sorted(shapes)}")
        return PlanGeometry(n, "png", shapes.pop(), "bytes")
    if isinstance(batch, np.ndarray):
        return PlanGeometry(
            n, "array", tuple(batch.shape[1:]), str(batch.dtype)
        )
    if all(isinstance(s, np.ndarray) for s in batch):
        shapes = {(s.shape, str(s.dtype)) for s in batch}
        if len(shapes) != 1:
            raise PlanInapplicable("ragged array batch")
        shape, dtype = shapes.pop()
        return PlanGeometry(n, "array", tuple(shape), dtype)
    raise PlanInapplicable(f"unplannable payload type {type(batch[0]).__name__}")


def _jpeg_decoded_shape(blob: Any) -> Tuple[int, int, int]:
    if not isinstance(blob, (bytes, bytearray)):
        raise PlanInapplicable("decode_jpeg expects compressed bytes")
    blob = bytes(blob)
    if blob[:4] != jpeg_codec._MAGIC:
        raise PlanInapplicable("not an RJPG stream")
    try:
        _, _, _, h, w = struct.unpack_from("<BBBHH", blob, 4)
    except struct.error as exc:
        raise PlanInapplicable(f"malformed RJPG header: {exc}") from exc
    return (h, w, 3)


def _png_decoded_shape(blob: Any) -> Tuple[int, int, int]:
    if not isinstance(blob, (bytes, bytearray)):
        raise PlanInapplicable("decode_png expects compressed bytes")
    blob = bytes(blob)
    if blob[:4] != png_codec._MAGIC:
        raise PlanInapplicable("not an RPNG stream")
    try:
        _, h, w, c = struct.unpack_from("<BHHB", blob, 4)
    except struct.error as exc:
        raise PlanInapplicable(f"malformed RPNG header: {exc}") from exc
    return (h, w, c)


# -- stages ------------------------------------------------------------------


class PlanStage:
    """One compiled pipeline segment bound to arena slots.

    ``fuses`` names the pipeline ops this stage absorbed, ``invariants``
    the per-batch constants hoisted at compile time, and
    ``mutates_input`` whether ``run`` writes into the array it receives
    (the compiler copy-protects a caller batch from such a first stage).
    """

    fuses: Tuple[str, ...] = ()
    invariants: Tuple[str, ...] = ()
    mutates_input = False

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        raise NotImplementedError

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        """(name, array) pairs of this stage's arena slots."""
        return []

    def describe(self) -> str:
        parts = ["+".join(self.fuses)]
        slots = self.slots()
        if slots:
            parts.append(
                "slots["
                + ", ".join(
                    f"{name}:{a.dtype}{list(a.shape)}" for name, a in slots
                )
                + "]"
            )
        if self.invariants:
            parts.append("hoisted[" + ", ".join(self.invariants) + "]")
        return "  ".join(parts)


class CopyInStage(PlanStage):
    """Copies the caller's batch into an arena slot so that a mutating
    first stage never touches a caller-owned array (the guarantee
    ``run_batch_vectorized`` makes by copying)."""

    fuses = ("<copy-in>",)

    def __init__(self, geometry: PlanGeometry) -> None:
        self._slot = np.empty(
            (geometry.batch_size,) + geometry.sample_shape,
            dtype=np.dtype(geometry.dtype),
        )

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        np.copyto(self._slot, data)
        return self._slot

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("copy", self._slot)]


class DecodeJpegStage(PlanStage):
    """JPEG blobs → uint8 image stack, decoded straight into the arena
    (no per-image arrays, no ``np.stack``).  ``describe()`` reports the
    lock-step crossover and transform chunk ``decode_batch`` picks for
    4:2:0 frames of the plan's geometry.

    A ``random_crop`` right after the decode (and a ``mirror`` after it)
    folds in: the stage draws each stream's two crop integers and its
    flip uniform first — decode draws nothing, so every stream's draw
    order is the per-sample path's — and ``decode_batch`` transforms
    only each crop window, writing it (reversed when the sample mirrors)
    into the slot.

    Nothing is hoisted: every RJPG blob carries its own Huffman tables
    (looked up per blob in the entropy decoder's caches), and the
    dequantization tables come from their memo at decode time."""

    def __init__(self, op: Any, geometry: PlanGeometry,
                 crop: Any = None, mirror: Any = None) -> None:
        self.fuses = tuple(o.name for o in (op, crop, mirror) if o is not None)
        self._crop = crop
        self._mirror = mirror
        self._shape = geometry.sample_shape
        h, w, _ = self._shape
        sub_h, sub_w = jpeg_codec._plane_geometry(True, h, w).luma_shape
        self.lockstep_min = jpeg_codec.lockstep_min_images(
            (sub_h // 8) * (sub_w // 8)
        )
        self.transform_chunk = jpeg_codec.transform_chunk_images(h, w)
        out_shape = (
            (crop.out_height, crop.out_width, 3) if crop is not None
            else geometry.sample_shape
        )
        self._slot = np.empty(
            (geometry.batch_size,) + out_shape, dtype=np.uint8
        )

    def _windows(self, rngs: Sequence[np.random.Generator]) -> Optional[list]:
        if self._crop is None:
            return None
        tops, lefts = self._crop.offsets(self._shape, rngs)
        flips = (
            self._mirror.coin_flips(rngs) if self._mirror is not None
            else np.zeros(len(rngs), dtype=bool)
        )
        oh, ow = self._crop.out_height, self._crop.out_width
        return [
            (int(t), int(l), oh, ow, bool(f))
            for t, l, f in zip(tops, lefts, flips)
        ]

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        for blob in data:
            if not isinstance(blob, (bytes, bytearray)):
                raise DataprepError("decode_jpeg expects compressed bytes")
        jpeg_codec.decode_batch(
            [bytes(b) for b in data], out=self._slot, windows=self._windows(rngs)
        )
        return self._slot

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("decoded", self._slot)]

    def describe(self) -> str:
        return (
            super().describe()
            + f"  lockstep_min={self.lockstep_min}"
            + f" transform_chunk={self.transform_chunk}"
        )


class DecodePngStage(PlanStage):
    """PNG blobs → uint8 image stack, decoded straight into the arena.
    Nothing is hoisted: every RPNG stream carries its own Huffman
    tables."""

    def __init__(self, op: Any, geometry: PlanGeometry) -> None:
        self.fuses = (op.name,)
        self._slot = np.empty(
            (geometry.batch_size,) + geometry.sample_shape, dtype=np.uint8
        )

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        for blob in data:
            if not isinstance(blob, (bytes, bytearray)):
                raise DataprepError("decode_png expects compressed bytes")
        png_codec.decode_batch(data, out=self._slot)
        return self._slot

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("decoded", self._slot)]


class FusedCropMirrorStage(PlanStage):
    """``random_crop`` + ``mirror`` in one per-sample strided copy: the
    crop window is read (reversed when the sample mirrors) directly into
    the output slot, so no full-size intermediate or gather-index array
    is ever materialized.  Per stream ``i`` the draws are exactly the
    per-sample path's: two crop integers, then one mirror uniform."""

    invariants = ("crop_offsets_layout",)

    def __init__(self, crop: Any, mirror: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (crop.name, mirror.name)
        self._crop = crop
        self._mirror = mirror
        self._in_shape = in_shape
        out_shape = (crop.out_height, crop.out_width) + in_shape[2:]
        self._slot = np.empty(
            (geometry.batch_size,) + out_shape, dtype=np.uint8
        )

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        h, w = data.shape[1:3]
        oh, ow = self._crop.out_height, self._crop.out_width
        if h < oh or w < ow:
            raise DataprepError(f"cannot crop {h}x{w} to {oh}x{ow}")
        tops, lefts = self._crop.offsets(data.shape[1:], rngs)
        flips = self._mirror.coin_flips(rngs)
        for i in range(data.shape[0]):
            window = data[
                i, tops[i] : tops[i] + oh, lefts[i] : lefts[i] + ow
            ]
            if flips[i]:
                window = window[:, ::-1]
            np.copyto(self._slot[i], window)
        return self._slot

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("cropped", self._slot)]


class CropStage(PlanStage):
    """Standalone ``random_crop`` into the arena."""

    def __init__(self, crop: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (crop.name,)
        self._crop = crop
        out_shape = (crop.out_height, crop.out_width) + in_shape[2:]
        self._slot = np.empty(
            (geometry.batch_size,) + out_shape, dtype=np.uint8
        )

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        h, w = data.shape[1:3]
        oh, ow = self._crop.out_height, self._crop.out_width
        if h < oh or w < ow:
            raise DataprepError(f"cannot crop {h}x{w} to {oh}x{ow}")
        tops, lefts = self._crop.offsets(data.shape[1:], rngs)
        for i in range(data.shape[0]):
            np.copyto(
                self._slot[i],
                data[i, tops[i] : tops[i] + oh, lefts[i] : lefts[i] + ow],
            )
        return self._slot

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("cropped", self._slot)]


class MirrorStage(PlanStage):
    """Standalone ``mirror``, flipping selected rows in place through a
    one-sample scratch slot (a reversed self-copy would overlap)."""

    mutates_input = True

    def __init__(self, mirror: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (mirror.name,)
        self._mirror = mirror
        self._scratch = np.empty(in_shape, dtype=np.uint8)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        flips = self._mirror.coin_flips(rngs)
        for i in np.flatnonzero(flips):
            np.copyto(self._scratch, data[i, :, ::-1])
            np.copyto(data[i], self._scratch)
        return data

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("mirror_scratch", self._scratch)]


class FusedNoiseCastStage(PlanStage):
    """``gaussian_noise`` + ``cast`` over one int16 slot: each sample's
    table offsets are gathered straight into the slot, the add and clip
    run in place over the whole batch, and the normalize-multiply writes
    the float32 output slot — the uint8 round-trip between the two ops
    disappears.  Bit-identity holds because post-clip values are
    exact integers in [0, 255] and int16 → float32 is exact, so the
    multiply sees the operands ``cast`` would."""

    invariants = ("noise_table",)

    def __init__(self, noise: Any, castop: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (noise.name, castop.name)
        self._table = noise_table(noise.sigma)
        self._scale = np.float32(castop.scale)
        shape = (geometry.batch_size,) + in_shape
        self._noisy = np.empty(shape, dtype=np.int16)
        self._out = np.empty(shape, dtype=np.float32)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        if data.dtype != np.uint8:
            raise DataprepError("gaussian_noise expects uint8 pixels")
        noisy = add_table_noise(self._table, data, rngs, self._noisy)
        np.multiply(noisy, self._scale, out=self._out)
        return self._out

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("noisy", self._noisy), ("out_f32", self._out)]


class NoiseStage(PlanStage):
    """Standalone ``gaussian_noise`` (uint8 → uint8 through the arena)."""

    invariants = ("noise_table",)

    def __init__(self, noise: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (noise.name,)
        self._table = noise_table(noise.sigma)
        shape = (geometry.batch_size,) + in_shape
        self._noisy = np.empty(shape, dtype=np.int16)
        self._out = np.empty(shape, dtype=np.uint8)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        if data.dtype != np.uint8:
            raise DataprepError("gaussian_noise expects uint8 pixels")
        noisy = add_table_noise(self._table, data, rngs, self._noisy)
        # Post-clip values lie in [0, 255], so the narrowing copy is exact.
        np.copyto(self._out, noisy, casting="unsafe")
        return self._out

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("noisy", self._noisy), ("out_u8", self._out)]


class CastStage(PlanStage):
    """Standalone ``cast`` (uint8 → scaled float32)."""

    def __init__(self, castop: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (castop.name,)
        self._scale = np.float32(castop.scale)
        self._out = np.empty(
            (geometry.batch_size,) + in_shape, dtype=np.float32
        )

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        if data.dtype != np.uint8:
            raise DataprepError("cast expects uint8 pixels")
        self._out[...] = data
        self._out *= self._scale
        return self._out

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [("out_f32", self._out)]


class SpectrogramStage(PlanStage):
    """``spectrogram`` with the Hann window hoisted and the framing,
    windowing and power passes bound to arena slots.  The FFT itself
    allocates its output (``np.fft.rfft`` has no ``out=``) — freed
    within the call, so net steady-state growth stays ~zero."""

    invariants = ("hann_window", "frame_layout")

    def __init__(self, op: Any, geometry: PlanGeometry) -> None:
        self.fuses = (op.name,)
        self._op = op
        self._window = stftmod.cached_hann_window(op.win_length)
        n = geometry.batch_size
        (self._n_samples,) = geometry.sample_shape
        self._int_input = np.dtype(geometry.dtype) == np.dtype(np.int16)
        frames = stftmod.num_frames(
            self._n_samples, op.hop_length, op.win_length
        )
        self._frames = frames
        padded_len = (frames - 1) * op.hop_length + op.win_length
        bins = op.n_fft // 2 + 1
        self._padded = np.zeros((n, padded_len), dtype=np.float64)
        self._windows = np.empty((n, frames, op.win_length), dtype=np.float64)
        self._power = np.empty((n * frames, bins), dtype=np.float64)
        self._imag_sq = np.empty((n * frames, bins), dtype=np.float64)
        self._out = np.empty((n, frames, bins), dtype=np.float32)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        op = self._op
        n = self._n_samples
        # The tail of ``padded`` past ``n`` is zero at compile time and
        # never written, so no per-batch re-zeroing is needed.
        self._padded[:, :n] = data
        if self._int_input:
            self._padded[:, :n] /= 32768.0
        view = np.lib.stride_tricks.sliding_window_view(
            self._padded, op.win_length, axis=1
        )[:, :: op.hop_length]
        # Fuses the frame copy and the windowing into one pass.
        np.multiply(view, self._window[None, None, :], out=self._windows)
        spectrum = np.fft.rfft(
            self._windows.reshape(-1, op.win_length), n=op.n_fft, axis=1
        )
        np.multiply(spectrum.real, spectrum.real, out=self._power)
        np.multiply(spectrum.imag, spectrum.imag, out=self._imag_sq)
        self._power += self._imag_sq
        self._out[...] = self._power.reshape(self._out.shape)
        return self._out

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [
            ("padded", self._padded),
            ("windows", self._windows),
            ("power", self._power),
            ("imag_sq", self._imag_sq),
            ("out_f32", self._out),
        ]


class MelStage(PlanStage):
    """``mel_filter_bank`` with the bank hoisted and the matmul/log
    bound to arena slots.  The matmul uses the same operand layouts as
    the per-op path (C-contiguous input, transposed bank view) so the
    BLAS summation order — and therefore every bit — matches."""

    invariants = ("mel_bank",)

    def __init__(self, op: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (op.name,)
        self._op = op
        frames, bins = in_shape
        n_fft = (bins - 1) * 2
        self._bank = melmod.mel_filter_bank(
            op.n_mels, n_fft, op.sample_rate
        )
        n = geometry.batch_size
        self._in_f64 = np.empty((n, frames, bins), dtype=np.float64)
        self._mel = np.empty((n, frames, op.n_mels), dtype=np.float64)
        self._out = np.empty((n, frames, op.n_mels), dtype=np.float32)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        self._in_f64[...] = data
        np.matmul(self._in_f64, self._bank.T, out=self._mel)
        if self._op.log:
            self._mel += 1e-10
            np.log(self._mel, out=self._mel)
        self._out[...] = self._mel
        return self._out

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [
            ("in_f64", self._in_f64),
            ("mel", self._mel),
            ("out_f32", self._out),
        ]


class MaskingStage(PlanStage):
    """``masking`` running in place on the previous stage's slot (the
    draws per stream are exactly the per-sample path's)."""

    mutates_input = True

    def __init__(self, op: Any) -> None:
        self.fuses = (op.name,)
        self._op = op

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        return self._op.apply_batch(data, rngs)


class NormalizeStage(PlanStage):
    """``norm`` with per-sample statistics and the broadcast bound to
    arena slots.  All arithmetic stays in float32 — a float32 array's
    ``.mean()``/``.std()`` are float32 scalars, so the per-sample
    reference never leaves float32 either (compiled only for float32
    inputs; anything else takes the generic stage)."""

    def __init__(self, op: Any, geometry: PlanGeometry,
                 in_shape: Tuple[int, ...]) -> None:
        self.fuses = (op.name,)
        self._op = op
        n = geometry.batch_size
        self._means = np.empty(n, dtype=np.float32)
        self._divisors = np.empty(n, dtype=np.float32)
        self._buf = np.empty((n,) + in_shape, dtype=np.float32)

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        for i in range(data.shape[0]):
            self._means[i] = data[i].mean()
            self._divisors[i] = data[i].std()
        self._divisors += self._op.eps
        np.subtract(data, self._means[:, None, None], out=self._buf)
        self._buf /= self._divisors[:, None, None]
        return self._buf

    def slots(self) -> List[Tuple[str, np.ndarray]]:
        return [
            ("means", self._means),
            ("divisors", self._divisors),
            ("out_f32", self._buf),
        ]


class OpStage(PlanStage):
    """Fallback stage delegating to the op's ``apply_batch`` — correct
    for any op, but without fusion or arena binding.  An op may mutate
    the stack it receives, so this stage is marked mutating."""

    mutates_input = True

    def __init__(self, op: Any) -> None:
        self.fuses = (op.name,)
        self._op = op

    def run(self, data: Any, rngs: Sequence[np.random.Generator]) -> Any:
        return self._op.apply_batch(data, rngs)

    def describe(self) -> str:
        return super().describe() + "  (generic apply_batch)"


# -- the plan ----------------------------------------------------------------


class PrepPlan:
    """An executable, geometry-specialized compilation of a pipeline."""

    def __init__(
        self,
        pipeline_name: str,
        fingerprint: str,
        geometry: PlanGeometry,
        stages: List[PlanStage],
        compile_seconds: float = 0.0,
    ) -> None:
        self.pipeline_name = pipeline_name
        self.fingerprint = fingerprint
        self.geometry = geometry
        self.stages = stages
        self.compile_seconds = compile_seconds

    def execute(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Run the compiled pipeline over ``batch``.

        Returns a **view of the plan's output slot**, valid until the
        next ``execute`` on this plan; copy it to keep it.  Bit-identical
        to ``run_batch_reference`` on the same streams.
        """
        n = len(batch)
        if n != self.geometry.batch_size:
            raise PlanInapplicable(
                f"plan compiled for batches of {self.geometry.batch_size}, "
                f"got {n}"
            )
        if n != len(rngs):
            raise DataprepError(
                f"batch of {n} needs {n} rng streams, got {len(rngs)}"
            )
        data = batch
        if self.geometry.input_kind == "array" and not isinstance(
            data, np.ndarray
        ):
            data = np.stack(data)
        for stage in self.stages:
            data = stage.run(data, rngs)
        return data

    def arena_nbytes(self) -> int:
        return sum(
            arr.nbytes for stage in self.stages for _, arr in stage.slots()
        )

    def describe(self) -> str:
        lines = [
            f"plan {self.pipeline_name}  fingerprint={self.fingerprint[:12]}",
            (
                f"  geometry: batch={self.geometry.batch_size}"
                f" input={self.geometry.input_kind}"
                f" sample={list(self.geometry.sample_shape)}"
                f" dtype={self.geometry.dtype}"
            ),
            f"  arena: {self.arena_nbytes() / 1e6:.1f} MB in "
            f"{sum(len(s.slots()) for s in self.stages)} slots",
        ]
        for idx, stage in enumerate(self.stages):
            lines.append(f"  [{idx}] {stage.describe()}")
        return "\n".join(lines)


def _op_signature(op: Any) -> dict:
    return {"type": type(op).__name__, "name": op.name, "params": vars(op)}


def plan_fingerprint(pipeline: PrepPipeline, geometry: PlanGeometry) -> str:
    """The memoization key: pipeline structure/params + geometry."""
    return cache.fingerprint(
        "prep-plan",
        pipeline.name,
        [_op_signature(op) for op in pipeline.ops],
        {
            "batch_size": geometry.batch_size,
            "input_kind": geometry.input_kind,
            "sample_shape": list(geometry.sample_shape),
            "dtype": geometry.dtype,
        },
    )


def compile_plan(
    pipeline: PrepPipeline, geometry: PlanGeometry
) -> PrepPlan:
    """Compile (or fetch the memoized) :class:`PrepPlan` for
    ``(pipeline, geometry)``.

    Compiles exactly once per process for a given fingerprint — so
    :class:`~repro.dataprep.engine.PrepEngine` workers compile on their
    first shard and reuse the plan for every later shard.  The compile
    is traced as a ``prep.plan_compile`` span, counted in
    ``prep.plan_compile_total`` and timed (ms) in the
    ``prep.plan_compile_ms`` histogram.
    """
    fp = plan_fingerprint(pipeline, geometry)
    return cache.memoized(
        ("prep-plan", fp), lambda: _compile(pipeline, geometry, fp)
    )


def _compile(
    pipeline: PrepPipeline, geometry: PlanGeometry, fp: str
) -> PrepPlan:
    start = time.perf_counter()
    with obs.span(
        "prep.plan_compile",
        cat="prep",
        pipeline=pipeline.name,
        batch=geometry.batch_size,
    ):
        stages: List[PlanStage] = []
        shape: Optional[Tuple[int, ...]] = geometry.sample_shape
        dtype: Optional[str] = (
            "uint8" if geometry.input_kind in ("jpeg", "png")
            else geometry.dtype
        )
        ops = pipeline.ops
        i = 0
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if shape is None:
                # A generic stage upstream lost shape/dtype tracking:
                # every remaining stage must stay generic.
                stages.append(OpStage(op))
                i += 1
                continue
            if isinstance(op, ops_image.DecodeJpeg) and i == 0 and (
                geometry.input_kind == "jpeg"
            ):
                crop, mirror = _crop_and_mirror_after(ops, i, shape)
                stages.append(DecodeJpegStage(op, geometry, crop, mirror))
                dtype = "uint8"
                if crop is not None:
                    shape = (crop.out_height, crop.out_width) + shape[2:]
                i += 1 + (crop is not None) + (mirror is not None)
                continue
            elif isinstance(op, ops_image.DecodePng) and i == 0 and (
                geometry.input_kind == "png"
            ):
                stages.append(DecodePngStage(op, geometry))
                dtype = "uint8"
            elif (
                isinstance(op, ops_image.RandomCrop)
                and isinstance(nxt, ops_image.Mirror)
                and dtype == "uint8"
                and len(shape) == 3
            ):
                stages.append(
                    FusedCropMirrorStage(op, nxt, geometry, shape)
                )
                shape = (op.out_height, op.out_width) + shape[2:]
                i += 2
                continue
            elif (
                isinstance(op, ops_image.RandomCrop)
                and dtype == "uint8"
                and len(shape) == 3
            ):
                stages.append(CropStage(op, geometry, shape))
                shape = (op.out_height, op.out_width) + shape[2:]
            elif (
                isinstance(op, ops_image.Mirror)
                and dtype == "uint8"
                and len(shape) == 3
            ):
                stages.append(MirrorStage(op, geometry, shape))
            elif isinstance(op, ops_image.GaussianNoise) and isinstance(
                nxt, ops_image.CastToFloat
            ):
                stages.append(
                    FusedNoiseCastStage(op, nxt, geometry, shape)
                )
                dtype = "float32"
                i += 2
                continue
            elif isinstance(op, ops_image.GaussianNoise):
                stages.append(NoiseStage(op, geometry, shape))
                dtype = "uint8"
            elif isinstance(op, ops_image.CastToFloat):
                stages.append(CastStage(op, geometry, shape))
                dtype = "float32"
            elif (
                isinstance(op, ops_audio.Spectrogram)
                and i == 0
                and len(shape) == 1
            ):
                stage = SpectrogramStage(op, geometry)
                stages.append(stage)
                shape = stage._out.shape[1:]
                dtype = "float32"
            elif isinstance(op, ops_audio.MelFilterBank) and len(shape) == 2:
                stages.append(MelStage(op, geometry, shape))
                shape = (shape[0], op.n_mels)
                dtype = "float32"
            elif isinstance(op, ops_audio.SpecMasking):
                stages.append(MaskingStage(op))
            elif (
                isinstance(op, ops_audio.Normalize)
                and len(shape) == 2
                and dtype == "float32"
            ):
                stages.append(NormalizeStage(op, geometry, shape))
            else:
                stages.append(OpStage(op))
                shape = None
                dtype = None
            i += 1
        if stages and stages[0].mutates_input:
            stages.insert(0, CopyInStage(geometry))
    elapsed = time.perf_counter() - start
    obs.inc("prep.plan_compile_total")
    obs.observe("prep.plan_compile_ms", elapsed * 1e3)
    return PrepPlan(pipeline.name, fp, geometry, stages, elapsed)


def _crop_and_mirror_after(
    ops: Sequence[Any], i: int, shape: Tuple[int, ...]
) -> Tuple[Any, Any]:
    """The ``random_crop`` (and the ``mirror`` right after it) that the
    decode at ``ops[i]`` can fold in, each ``None`` when absent.  A crop
    larger than the decoded ``shape`` stays a stage of its own, which
    raises the per-sample path's error."""
    crop = ops[i + 1] if i + 1 < len(ops) else None
    if not (
        isinstance(crop, ops_image.RandomCrop)
        and crop.out_height <= shape[0]
        and crop.out_width <= shape[1]
    ):
        return None, None
    mirror = ops[i + 2] if i + 2 < len(ops) else None
    return crop, (mirror if isinstance(mirror, ops_image.Mirror) else None)


def try_plan(pipeline: PrepPipeline, batch: Any) -> Optional[PrepPlan]:
    """The compiled plan for ``batch``, or ``None`` when this
    pipeline/batch combination cannot take the planned path."""
    try:
        geometry = geometry_for_batch(pipeline, batch)
    except PlanInapplicable:
        return None
    except Exception:
        # Malformed payloads surface their real error on the per-op path.
        return None
    return compile_plan(pipeline, geometry)
