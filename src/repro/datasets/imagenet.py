"""Synthetic ImageNet-like dataset: real JPEG bytes, synthetic pictures.

Images are procedurally generated (smooth gradients + textured patches +
noise) so that they compress at photo-like ratios with the package's own
codec, and every item carries a class label so the training substrate can
consume the dataset end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep.pipeline import SampleSpec


@dataclass(frozen=True)
class ImageDatasetSpec:
    """Static description used by the simulator (no data generated)."""

    name: str
    height: int
    width: int
    num_items: int
    compressed_bytes: float
    num_classes: int = 1000

    def sample_spec(self) -> SampleSpec:
        return SampleSpec(
            "jpeg", (self.height, self.width, 3), self.compressed_bytes
        )


#: ImageNet as the paper stores it: 14 M items, 256×256 JPEG.  45 KB is a
#: photo-typical compressed size at quality ~75-85 (≈4.4:1 versus raw RGB).
IMAGENET_LIKE = ImageDatasetSpec(
    name="imagenet-like",
    height=256,
    width=256,
    num_items=14_000_000,
    compressed_bytes=45_000.0,
)


def synthesize_image(
    rng: np.random.Generator, height: int, width: int, label: int
) -> np.ndarray:
    """A photo-like uint8 RGB image whose appearance depends on ``label``.

    Smooth background gradient (label-keyed hue) + a few soft blobs +
    mild sensor noise: compresses like a photograph, and classes are
    visually distinct so a classifier can actually learn them.
    """
    if height < 8 or width < 8:
        raise DataprepError(f"image too small: {height}x{width}")
    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    phase = (label % 16) / 16.0
    # Horizontal structure depends on |x - 0.5| so the class signal is
    # mirror-symmetric: flipping an image never changes its label, which
    # keeps mirror augmentation label-preserving.
    xsym = np.abs(xs - 0.5) * 2.0
    base = np.stack(
        [
            120 + 100 * np.sin(2 * np.pi * (xsym + phase)) * ys,
            120 + 100 * np.cos(2 * np.pi * (ys + phase)) * xsym,
            np.full((height, width), 90.0 + 8.0 * (label % 8)),
        ],
        axis=-1,
    )
    for _ in range(3):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        radius = rng.uniform(min(height, width) / 8, min(height, width) / 3)
        blob = np.exp(
            -(((ys * height - cy) ** 2 + (xs * width - cx) ** 2) / (2 * radius**2))
        )
        base += blob[..., None] * rng.uniform(-60, 60, size=3)
    base += rng.normal(0.0, 3.0, base.shape)
    return np.clip(base, 0, 255).astype(np.uint8)


class SyntheticImageDataset:
    """Generates (jpeg_bytes, label) items on demand, deterministically.

    Item ``i`` is always the same for a given seed, so shards can be
    regenerated independently on any worker — mirroring how the train
    initializer distributes data to per-box SSDs (§V-A).
    """

    def __init__(
        self,
        num_items: int,
        height: int = 64,
        width: int = 64,
        num_classes: int = 10,
        quality: int = 80,
        seed: int = 0,
    ) -> None:
        if num_items <= 0:
            raise DataprepError("num_items must be positive")
        if num_classes <= 0:
            raise DataprepError("num_classes must be positive")
        self.num_items = num_items
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
        """The uncompressed image and label for item ``index``."""
        if not 0 <= index < self.num_items:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, index))
        label = self.label_of(index)
        return synthesize_image(rng, self.height, self.width, label), label

    def __getitem__(self, index: int) -> Tuple[bytes, int]:
        from repro.dataprep.jpeg import encode

        image, label = self.raw_item(index)
        return encode(image, quality=self.quality), label

    def __iter__(self) -> Iterator[Tuple[bytes, int]]:
        for i in range(self.num_items):
            yield self[i]

    def batch(self, start: int, count: int) -> List[Tuple[bytes, int]]:
        """Items ``start .. start+count`` encoded in one batched codec
        call: all images share a shape, so the DCT/quantization stages run
        over one tall stacked plane instead of per-image arrays.  Item
        ``i`` of the result is byte-identical to ``self[start + i]``.
        """
        if count <= 0:
            raise DataprepError("batch count must be positive")
        if not 0 <= start <= self.num_items - count:
            raise IndexError(f"batch [{start}, {start + count}) out of range")
        from repro.dataprep.jpeg import encode_batch

        pairs = [self.raw_item(start + i) for i in range(count)]
        blobs = encode_batch([img for img, _ in pairs], quality=self.quality)
        return [(blob, label) for blob, (_, label) in zip(blobs, pairs)]

    def measured_spec(self, probe_items: int = 4) -> SampleSpec:
        """A :class:`SampleSpec` whose compressed size is measured from a
        few generated items rather than assumed."""
        probe = min(probe_items, self.num_items)
        sizes = [len(blob) for blob, _ in self.batch(0, probe)]
        return SampleSpec(
            "jpeg", (self.height, self.width, 3), float(np.mean(sizes))
        )

    def shard_loader(self) -> "ImageShardLoader":
        """A picklable loader for :class:`repro.dataprep.engine.PrepEngine`."""
        return ImageShardLoader(self)


@dataclass(frozen=True)
class ImageShardLoader:
    """Shard loader feeding the prep engine: JPEG blobs for a global
    sample range.  The dataset regenerates items deterministically from
    its seed, so workers need no data transfer — only this descriptor."""

    dataset: SyntheticImageDataset

    def __call__(self, start: int, count: int) -> List[bytes]:
        return [blob for blob, _ in self.dataset.batch(start, count)]

    def labels(self, start: int, count: int) -> np.ndarray:
        """Labels for the same range (cheap: no pixels generated)."""
        return np.array(
            [self.dataset.label_of(start + i) for i in range(count)]
        )
