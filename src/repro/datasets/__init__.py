"""Synthetic dataset generators.

The paper trains on ImageNet (stored as 256×256 JPEG) and Librispeech
(sound streams of 6.96 s on average, §III-B1).  Neither is shippable
here, so these generators produce synthetic equivalents with the same
*format and size distributions* — which is all data preparation cost
depends on (the decode/augment work is a function of geometry, not of
picture content).  The substitution is recorded in DESIGN.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "imagenet": ("SyntheticImageDataset", "IMAGENET_LIKE"),
    "librispeech": ("SyntheticSpeechDataset", "LIBRISPEECH_LIKE"),
    "sampling": ("ShuffleBuffer", "WeightedSampler", "epoch_permutation"),
    "storage": ("DataShard", "shard_dataset"),
    "video": ("KINETICS_LIKE", "SyntheticVideoDataset"),
})
