"""Synthetic video dataset: motion-JPEG clips of moving synthetic scenes.

Video is the paper's canonical example of a *new input form* a user adds
to TrainBox through partial reconfiguration (§V-C).  Clips are sequences
of frames from the image synthesizer with a drifting viewpoint, packed
with :func:`repro.dataprep.ops_video.encode_clip`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep.ops_video import encode_clip, pack_clip
from repro.dataprep.pipeline import SampleSpec
from repro.datasets.imagenet import synthesize_image


@dataclass(frozen=True)
class VideoDatasetSpec:
    """Static description used by the simulator (no data generated)."""

    name: str
    frames_per_clip: int
    height: int
    width: int
    num_items: int
    compressed_bytes_per_frame: float

    def sample_spec(self) -> SampleSpec:
        return SampleSpec(
            "video_mjpeg",
            (self.frames_per_clip, self.height, self.width, 3),
            self.frames_per_clip * self.compressed_bytes_per_frame,
        )


#: A Kinetics-class clip dataset: 16-frame 256×256 clips, frame payloads
#: sized like the ImageNet JPEGs.
KINETICS_LIKE = VideoDatasetSpec(
    name="kinetics-like",
    frames_per_clip=16,
    height=256,
    width=256,
    num_items=650_000,
    compressed_bytes_per_frame=45_000.0,
)


class SyntheticVideoDataset:
    """Generates (clip_bytes, action_label) items deterministically."""

    def __init__(
        self,
        num_items: int,
        frames_per_clip: int = 8,
        height: int = 48,
        width: int = 48,
        num_classes: int = 8,
        quality: int = 80,
        seed: int = 0,
    ) -> None:
        if num_items <= 0:
            raise DataprepError("num_items must be positive")
        if frames_per_clip <= 0:
            raise DataprepError("frames_per_clip must be positive")
        self.num_items = num_items
        self.frames_per_clip = frames_per_clip
        self.height = height
        self.width = width
        self.num_classes = num_classes
        self.quality = quality
        self.seed = seed

    def __len__(self) -> int:
        return self.num_items

    def label_of(self, index: int) -> int:
        return index % self.num_classes

    def raw_item(self, index: int) -> Tuple[np.ndarray, int]:
        """The uncompressed (T, H, W, 3) clip and its label.

        The label keys both the scene (via the image synthesizer) and the
        motion: each class pans at a distinct velocity, so a video model
        genuinely needs the temporal dimension.
        """
        if not 0 <= index < self.num_items:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, index))
        label = self.label_of(index)
        # Synthesize an oversized scene once, then pan a window across it.
        margin = 2 * self.frames_per_clip
        scene = synthesize_image(
            rng, self.height + margin, self.width + margin, label
        )
        velocity = 1 + label % 3
        frames = []
        for t in range(self.frames_per_clip):
            offset = min(t * velocity, margin)
            frames.append(
                scene[offset : offset + self.height, offset : offset + self.width]
            )
        return np.stack(frames), label

    def __getitem__(self, index: int) -> Tuple[bytes, int]:
        clip, label = self.raw_item(index)
        return encode_clip(list(clip), quality=self.quality), label

    def __iter__(self) -> Iterator[Tuple[bytes, int]]:
        for i in range(self.num_items):
            yield self[i]

    def batch(self, start: int, count: int) -> List[Tuple[bytes, int]]:
        """Items ``start .. start+count`` with every clip's frames fed
        through one batched JPEG encode (all frames share a shape, so
        the whole batch's DCT/quantize stages run over one tall stack).
        Item ``i`` is byte-identical to ``self[start + i]``."""
        if count <= 0:
            raise DataprepError("batch count must be positive")
        if not 0 <= start <= self.num_items - count:
            raise IndexError(f"batch [{start}, {start + count}) out of range")
        from repro.dataprep.jpeg import encode_batch

        pairs = [self.raw_item(start + i) for i in range(count)]
        flat = encode_batch(
            [frame for clip, _ in pairs for frame in clip],
            quality=self.quality,
        )
        out = []
        t = self.frames_per_clip
        for j, (_, label) in enumerate(pairs):
            out.append((pack_clip(flat[j * t : (j + 1) * t]), label))
        return out

    def shard_loader(self) -> "VideoShardLoader":
        """A picklable loader for :class:`repro.dataprep.engine.PrepEngine`."""
        return VideoShardLoader(self)

    def measured_spec(self, probe_items: int = 2) -> SampleSpec:
        probe = min(probe_items, self.num_items)
        sizes = [len(self[i][0]) for i in range(probe)]
        return SampleSpec(
            "video_mjpeg",
            (self.frames_per_clip, self.height, self.width, 3),
            float(np.mean(sizes)),
        )


@dataclass(frozen=True)
class VideoShardLoader:
    """Shard loader feeding the prep engine: clip containers for a
    global sample range, regenerated deterministically on any worker."""

    dataset: SyntheticVideoDataset

    def __call__(self, start: int, count: int) -> List[bytes]:
        return [clip for clip, _ in self.dataset.batch(start, count)]

    def labels(self, start: int, count: int) -> np.ndarray:
        return np.array(
            [self.dataset.label_of(start + i) for i in range(count)]
        )
