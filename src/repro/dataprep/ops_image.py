"""Image data-preparation operations (the Table II engine set).

Pipeline order follows Figure 17: the *formatting engine* (JPEG decode,
crop) feeds the *augmentation engine* (mirror, Gaussian noise, cast).
Each op executes on real numpy payloads and prices itself with the
calibrated constants from :mod:`repro.dataprep.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep import cost as costmod
from repro.dataprep.cost import OpCost, cpu_mem_traffic
from repro.dataprep.jpeg import codec as jpeg_codec
from repro.dataprep.pipeline import PrepOp, SampleSpec, stack_samples


class DecodePng(PrepOp):
    """PNG → uint8 RGB, for datasets stored losslessly (§VII-A lists PNG
    among the decoder engines TrainBox can host)."""

    name = "decode_png"
    kind = "decode"

    def apply(self, data: Any, rng: np.random.Generator) -> np.ndarray:
        from repro.dataprep.png import codec as png_codec

        if not isinstance(data, (bytes, bytearray)):
            raise DataprepError("decode_png expects compressed bytes")
        return png_codec.decode(bytes(data))

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("png", self.name)
        height, width = spec.shape[:2]
        pixels = height * width
        out_bytes = float(pixels * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.PNG_DECODE_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("image_u8", (height, width, 3), out_bytes)


class DecodeJpeg(PrepOp):
    """JPEG → uint8 RGB (the dominant formatting cost, §III-C)."""

    name = "decode_jpeg"
    kind = "decode"

    def apply(self, data: Any, rng: np.random.Generator) -> np.ndarray:
        if not isinstance(data, (bytes, bytearray)):
            raise DataprepError("decode_jpeg expects compressed bytes")
        return jpeg_codec.decode(bytes(data))

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        """Batched decode: the entropy stage (lock-step above the
        crossover) feeds shared dequantize/IDCT/color passes over the
        stack (see :func:`repro.dataprep.jpeg.codec.decode_batch`)."""
        for blob in batch:
            if not isinstance(blob, (bytes, bytearray)):
                raise DataprepError("decode_jpeg expects compressed bytes")
        return stack_samples(jpeg_codec.decode_batch([bytes(b) for b in batch]))

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("jpeg", self.name)
        height, width = spec.shape[:2]
        pixels = height * width
        out_bytes = float(pixels * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.DECODE_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("image_u8", (height, width, 3), out_bytes)


@dataclass
class RandomCrop(PrepOp):
    """Random crop to the model's input size, the augmentation the paper
    uses to motivate on-line preparation (§III-D: a 256×256 image yields
    32×32 distinct 224×224 crops)."""

    out_height: int = 224
    out_width: int = 224
    name: str = "random_crop"
    kind: str = "crop"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 3:
            raise DataprepError("random_crop expects an HxWxC image")
        h, w = data.shape[:2]
        if h < self.out_height or w < self.out_width:
            raise DataprepError(
                f"cannot crop {h}x{w} to {self.out_height}x{self.out_width}"
            )
        top = int(rng.integers(0, h - self.out_height + 1))
        left = int(rng.integers(0, w - self.out_width + 1))
        return data[top : top + self.out_height, left : left + self.out_width]

    def offsets(
        self, shape: Tuple[int, ...], rngs: Sequence[np.random.Generator]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample (top, left) crop origins, one draw pair per stream
        — exactly the draws ``apply`` makes, so batched == scalar."""
        h, w = shape[:2]
        tops = np.empty(len(rngs), dtype=np.intp)
        lefts = np.empty(len(rngs), dtype=np.intp)
        for i, rng in enumerate(rngs):
            tops[i] = int(rng.integers(0, h - self.out_height + 1))
            lefts[i] = int(rng.integers(0, w - self.out_width + 1))
        return tops, lefts

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 4:
            raise DataprepError("random_crop expects an NxHxWxC stack")
        n, h, w = batch.shape[:3]
        if h < self.out_height or w < self.out_width:
            raise DataprepError(
                f"cannot crop {h}x{w} to {self.out_height}x{self.out_width}"
            )
        tops, lefts = self.offsets(batch.shape[1:], rngs)
        # One gather over per-sample window indices: advanced indexing
        # assembles all N crops in a single contiguous copy.
        rows = tops[:, None] + np.arange(self.out_height, dtype=np.intp)
        cols = lefts[:, None] + np.arange(self.out_width, dtype=np.intp)
        return batch[
            np.arange(n, dtype=np.intp)[:, None, None],
            rows[:, :, None],
            cols[:, None, :],
        ]

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("image_u8", self.name)
        if spec.shape[0] < self.out_height or spec.shape[1] < self.out_width:
            raise DataprepError(
                f"cannot crop {spec.shape} to {self.out_height}x{self.out_width}"
            )
        pixels = self.out_height * self.out_width
        out_bytes = float(pixels * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.CROP_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("image_u8", (self.out_height, self.out_width, 3), out_bytes)


@dataclass
class Mirror(PrepOp):
    """Random horizontal flip."""

    probability: float = 0.5
    name: str = "mirror"
    kind: str = "mirror"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise DataprepError(f"probability must be in [0,1]: {self.probability}")

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 3:
            raise DataprepError("mirror expects an HxWxC image")
        if rng.random() < self.probability:
            return data[:, ::-1]
        return data

    def coin_flips(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Per-sample flip decisions, one uniform draw per stream — the
        same draw ``apply`` makes."""
        return np.array(
            [rng.random() < self.probability for rng in rngs], dtype=bool
        )

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 4:
            raise DataprepError("mirror expects an NxHxWxC stack")
        flips = self.coin_flips(rngs)
        if flips.any():
            # One boolean-mask gather + reversed writeback flips every
            # selected image along W without touching the others.
            batch[flips] = batch[flips][:, :, ::-1]
        return batch

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("image_u8", self.name)
        pixels = spec.shape[0] * spec.shape[1]
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.MIRROR_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=spec.nbytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, spec.nbytes),
        )
        return op, spec


@dataclass
class GaussianNoise(PrepOp):
    """Additive Gaussian noise on uint8 pixels, clipped to range."""

    sigma: float = 4.0
    name: str = "gaussian_noise"
    kind: str = "noise"

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise DataprepError(f"sigma must be >= 0: {self.sigma}")

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.dtype != np.uint8:
            raise DataprepError("gaussian_noise expects uint8 pixels")
        noise = rng.standard_normal(data.shape, dtype=np.float32)
        return self._finish(noise, data)

    def _finish(self, noise: np.ndarray, data: np.ndarray) -> np.ndarray:
        # In-place scale/add/round/clip on the float32 noise buffer: no
        # float64 temporary is ever materialized.  The op sequence is
        # shared between the scalar and batched paths so their math is
        # bit-identical by construction.
        noise *= np.float32(self.sigma)
        noise += data
        np.round(noise, out=noise)
        np.clip(noise, 0.0, 255.0, out=noise)
        return noise.astype(np.uint8)

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.dtype != np.uint8:
            raise DataprepError("gaussian_noise expects uint8 pixels")
        noise = np.empty(batch.shape, dtype=np.float32)
        for row, rng in zip(noise, rngs):
            # Same per-sample draw as ``apply``, written straight into
            # the batch-wide buffer; the fused arithmetic below then runs
            # once over the whole stack.
            rng.standard_normal(row.shape, dtype=np.float32, out=row)
        return self._finish(noise, batch)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("image_u8", self.name)
        pixels = spec.shape[0] * spec.shape[1]
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.NOISE_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=spec.nbytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, spec.nbytes),
        )
        return op, spec


@dataclass
class CastToFloat(PrepOp):
    """uint8 → float32 with 1/255 normalization (the char→float widening
    the paper blames for the amplified data-load traffic, §III-C)."""

    scale: float = 1.0 / 255.0
    name: str = "cast"
    kind: str = "cast"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.dtype != np.uint8:
            raise DataprepError("cast expects uint8 pixels")
        return data.astype(np.float32) * self.scale

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.dtype != np.uint8:
            raise DataprepError("cast expects uint8 pixels")
        # float32 * python-float stays float32 (NEP 50 weak scalars), so
        # the single batch cast matches the per-sample path bit-for-bit.
        return batch.astype(np.float32) * self.scale

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("image_u8", self.name)
        pixels = spec.shape[0] * spec.shape[1]
        out_bytes = spec.nbytes * 4.0
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.CAST_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("image_f32", spec.shape, out_bytes)


def image_pipeline(
    out_height: int = 224,
    out_width: int = 224,
    noise_sigma: float = 4.0,
    mirror_probability: float = 0.5,
    source_format: str = "jpeg",
) -> "PrepPipeline":
    """The full Table II image pipeline: decode → crop → mirror → noise →
    cast.  ``source_format`` selects the decoder ("jpeg" or "png")."""
    from repro.dataprep.pipeline import PrepPipeline

    if source_format == "jpeg":
        decoder = DecodeJpeg()
    elif source_format == "png":
        decoder = DecodePng()
    else:
        raise DataprepError(f"unknown source format {source_format!r}")
    return PrepPipeline(
        [
            decoder,
            RandomCrop(out_height, out_width),
            Mirror(mirror_probability),
            GaussianNoise(noise_sigma),
            CastToFloat(),
        ],
        name=f"image-prep[{source_format}]" if source_format != "jpeg" else "image-prep",
    )
