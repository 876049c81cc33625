"""Video data-preparation operations — the paper's extensibility story.

§V-C: "When a user wants to add a new data preparation functionality
(e.g., new input form such as video), they need to implement it ... then
we can program FPGAs using techniques such as partial re-configuration;
most of the interfacing logics remain unchanged, and only the
computation acceleration part of the accelerator is changed."

This module is that user: a video front-end built from the existing
substrate.  Clips are stored as motion-JPEG-style sequences (each frame
our baseline JPEG — intra-only video codecs really work like this), and
the pipeline decodes, temporally subsamples, crops consistently across
frames, and casts.  :func:`video_engine_resources` provides the extra
FPGA engine so :meth:`FpgaResourceModel.with_engine` can model the
partial reconfiguration.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.errors import CodecError, DataprepError
from repro.dataprep import cost as costmod
from repro.dataprep.cost import OpCost, cpu_mem_traffic
from repro.dataprep.pipeline import PrepOp, PrepPipeline, SampleSpec, stack_samples
from repro.devices.fpga import EngineResources

_CLIP_MAGIC = b"RMJP"


def encode_clip(frames: List[np.ndarray], quality: int = 75) -> bytes:
    """Pack frames into a motion-JPEG-style clip container."""
    from repro.dataprep.jpeg import codec as jpeg_codec

    if not frames:
        raise CodecError("a clip needs at least one frame")
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise CodecError(f"frames differ in shape: {shapes}")
    return pack_clip([jpeg_codec.encode(f, quality=quality) for f in frames])


def pack_clip(payloads: List[bytes]) -> bytes:
    """Assemble already-encoded per-frame JPEG payloads into a clip
    container (the byte layout :func:`encode_clip` produces)."""
    if not payloads:
        raise CodecError("a clip needs at least one frame")
    out = bytearray(_CLIP_MAGIC)
    out.extend(struct.pack("<I", len(payloads)))
    for payload in payloads:
        out.extend(struct.pack("<I", len(payload)))
        out.extend(payload)
    return bytes(out)


def decode_clip(data: bytes) -> List[np.ndarray]:
    """Unpack and decode every frame of a clip; malformed containers
    raise CodecError."""
    if data[:4] != _CLIP_MAGIC:
        raise CodecError("not an RMJP clip")
    try:
        return _decode_clip_checked(data)
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        raise CodecError(f"malformed RMJP clip: {exc}") from exc


def _decode_clip_checked(data: bytes) -> List[np.ndarray]:
    from repro.dataprep.jpeg import codec as jpeg_codec

    return [jpeg_codec.decode(payload) for payload in _clip_payloads(data)]


def _clip_payloads(data: bytes) -> List[bytes]:
    """Split a clip container into its per-frame JPEG payloads."""
    if data[:4] != _CLIP_MAGIC:
        raise CodecError("not an RMJP clip")
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    payloads = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        payloads.append(data[offset : offset + length])
        offset += length
    return payloads


class DecodeVideo(PrepOp):
    """Clip bytes → (frames, H, W, 3) uint8 stack."""

    name = "decode_video"
    kind = "decode"

    def apply(self, data: Any, rng: np.random.Generator) -> np.ndarray:
        if not isinstance(data, (bytes, bytearray)):
            raise DataprepError("decode_video expects clip bytes")
        return np.stack(decode_clip(bytes(data)))

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        """Flatten every clip's frames into one ``decode_batch`` call so
        the whole batch shares a single batched JPEG transform stage,
        then regroup frames per clip."""
        from repro.dataprep.jpeg import codec as jpeg_codec

        for blob in batch:
            if not isinstance(blob, (bytes, bytearray)):
                raise DataprepError("decode_video expects clip bytes")
        try:
            payload_lists = [_clip_payloads(bytes(b)) for b in batch]
        except (struct.error, IndexError, ValueError) as exc:
            raise CodecError(f"malformed RMJP clip: {exc}") from exc
        flat = jpeg_codec.decode_batch(
            [p for payloads in payload_lists for p in payloads]
        )
        clips = []
        offset = 0
        for payloads in payload_lists:
            clips.append(np.stack(flat[offset : offset + len(payloads)]))
            offset += len(payloads)
        return stack_samples(clips)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("video_mjpeg", self.name)
        frames, height, width = spec.shape[:3]
        pixels = frames * height * width
        out_bytes = float(pixels * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.DECODE_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("video_u8", (frames, height, width, 3), out_bytes)


@dataclass
class TemporalSubsample(PrepOp):
    """Keep every ``stride``-th frame (standard clip sampling)."""

    stride: int = 2
    name: str = "temporal_subsample"
    kind: str = "crop"

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise DataprepError(f"stride must be >= 1: {self.stride}")

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 4:
            raise DataprepError("temporal_subsample expects (T,H,W,C)")
        return data[:: self.stride]

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 5:
            raise DataprepError("temporal_subsample expects (N,T,H,W,C)")
        return batch[:, :: self.stride]

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("video_u8", self.name)
        frames, height, width = spec.shape[:3]
        kept = (frames + self.stride - 1) // self.stride
        out_bytes = float(kept * height * width * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.CROP_CYCLES_PER_PIXEL * kept * height * width,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("video_u8", (kept, height, width, 3), out_bytes)


@dataclass
class ClipCrop(PrepOp):
    """One random spatial crop applied consistently to every frame (the
    augmentation must not jitter across a clip)."""

    out_height: int = 224
    out_width: int = 224
    name: str = "clip_crop"
    kind: str = "crop"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 4:
            raise DataprepError("clip_crop expects (T,H,W,C)")
        _, h, w, _ = data.shape
        if h < self.out_height or w < self.out_width:
            raise DataprepError(
                f"cannot crop {h}x{w} to {self.out_height}x{self.out_width}"
            )
        top = int(rng.integers(0, h - self.out_height + 1))
        left = int(rng.integers(0, w - self.out_width + 1))
        return data[:, top : top + self.out_height, left : left + self.out_width]

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 5:
            raise DataprepError("clip_crop expects (N,T,H,W,C)")
        n, t, h, w, c = batch.shape
        if h < self.out_height or w < self.out_width:
            raise DataprepError(
                f"cannot crop {h}x{w} to {self.out_height}x{self.out_width}"
            )
        out = np.empty(
            (n, t, self.out_height, self.out_width, c), dtype=batch.dtype
        )
        for i, rng in enumerate(rngs):
            # One (top, left) per clip — the same draws ``apply`` makes —
            # and one contiguous window copy per clip.
            top = int(rng.integers(0, h - self.out_height + 1))
            left = int(rng.integers(0, w - self.out_width + 1))
            out[i] = batch[
                i, :, top : top + self.out_height, left : left + self.out_width
            ]
        return out

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("video_u8", self.name)
        frames = spec.shape[0]
        if spec.shape[1] < self.out_height or spec.shape[2] < self.out_width:
            raise DataprepError(
                f"cannot crop {spec.shape} to {self.out_height}x{self.out_width}"
            )
        pixels = frames * self.out_height * self.out_width
        out_bytes = float(pixels * 3)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.CROP_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec(
            "video_u8", (frames, self.out_height, self.out_width, 3), out_bytes
        )


@dataclass
class ClipCast(PrepOp):
    """uint8 clip → float32 with 1/255 normalization."""

    scale: float = 1.0 / 255.0
    name: str = "clip_cast"
    kind: str = "cast"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.dtype != np.uint8:
            raise DataprepError("clip_cast expects uint8 frames")
        return data.astype(np.float32) * self.scale

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.dtype != np.uint8:
            raise DataprepError("clip_cast expects uint8 frames")
        return batch.astype(np.float32) * self.scale

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("video_u8", self.name)
        pixels = spec.shape[0] * spec.shape[1] * spec.shape[2]
        out_bytes = spec.nbytes * 4.0
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.CAST_CYCLES_PER_PIXEL * pixels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("video_f32", spec.shape, out_bytes)


def video_pipeline(
    out_height: int = 224, out_width: int = 224, stride: int = 2
) -> PrepPipeline:
    """Decode → temporal subsample → clip crop → cast."""
    return PrepPipeline(
        [
            DecodeVideo(),
            TemporalSubsample(stride),
            ClipCrop(out_height, out_width),
            ClipCast(),
        ],
        name="video-prep",
    )


def video_engine_resources() -> EngineResources:
    """FPGA resources of the video computation engine to swap in via
    partial reconfiguration.

    Sized as the JPEG decoder (the frame pipeline reuses it) plus modest
    stream-reassembly logic; combined with the fixed interfacing logic
    (Ethernet + P2P handler, which §V-C says stay resident) it must still
    fit the XCVU9P — a test checks that.
    """
    return EngineResources(
        name="video_decoder", luts=760_000, ffs=710_000, brams=256, dsps=1_140
    )
