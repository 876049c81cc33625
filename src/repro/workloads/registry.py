"""The paper's Table I, as data.

Each workload binds together everything the simulator needs: the
accelerator's measured throughput (TPU v3-8, largest batch that fits),
the model size that drives synchronization cost, the input type that
selects dataset and preparation pipeline, and a legacy-GPU rate used by
the Figure 3 "Current platform" configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError
from repro import units
from repro.devices.accelerator import AcceleratorSpec
from repro.dataprep.ops_audio import audio_pipeline
from repro.dataprep.ops_image import image_pipeline
from repro.dataprep.pipeline import PrepPipeline, SampleSpec
from repro.datasets.imagenet import IMAGENET_LIKE
from repro.datasets.librispeech import LIBRISPEECH_LIKE


class NNType(enum.Enum):
    CNN = "CNN"
    RNN = "RNN"
    TRANSFORMER = "Transformer"


class InputType(enum.Enum):
    IMAGE = "image"
    AUDIO = "audio"
    VIDEO = "video"


@dataclass(frozen=True)
class Workload:
    """One row of Table I plus the bindings the simulator needs.

    ``batch_size`` is per accelerator ("the largest batch size that a
    single TPU v3-8 instance can run"); ``sample_rate`` is the measured
    samples/s of one TPU v3-8 at that batch.
    """

    name: str
    nn_type: NNType
    task: str
    batch_size: int
    model_bytes: float
    sample_rate: float
    input_type: InputType
    legacy_gpu_rate: float

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError(f"{self.name}: batch_size must be positive")
        if self.sample_rate <= 0:
            raise ConfigError(f"{self.name}: sample_rate must be positive")
        if self.model_bytes <= 0:
            raise ConfigError(f"{self.name}: model_bytes must be positive")

    def accelerator_spec(self, batch_half: int = 256) -> AcceleratorSpec:
        """TPU-v3-8-class accelerator calibrated to this row."""
        return AcceleratorSpec(
            name=f"tpu-v3-8/{self.name}",
            sample_rate=self.sample_rate,
            reference_batch=self.batch_size,
            batch_half=batch_half,
        )

    def legacy_accelerator_spec(self) -> AcceleratorSpec:
        """2017-era GPU (Titan XP class) for the Figure 3 baseline."""
        return AcceleratorSpec(
            name=f"titan-xp/{self.name}",
            sample_rate=self.legacy_gpu_rate,
            reference_batch=max(1, self.batch_size // 32),
            batch_half=32,
        )

    def prep_pipeline(self) -> PrepPipeline:
        """The data-preparation pipeline this workload's input needs."""
        if self.input_type is InputType.IMAGE:
            return image_pipeline()
        if self.input_type is InputType.VIDEO:
            from repro.dataprep.ops_video import video_pipeline

            return video_pipeline()
        return audio_pipeline()

    def dataset_sample_spec(self) -> SampleSpec:
        """Spec of one stored item (compressed JPEG / clip / PCM stream)."""
        if self.input_type is InputType.IMAGE:
            return IMAGENET_LIKE.sample_spec()
        if self.input_type is InputType.VIDEO:
            from repro.datasets.video import KINETICS_LIKE

            return KINETICS_LIKE.sample_spec()
        return LIBRISPEECH_LIKE.sample_spec()


def _mb(value: float) -> float:
    return value * units.MB


#: Table I.  Legacy GPU rates are scaled from the TPU numbers by the
#: roughly 30-40× per-device gap between a 2017 Titan XP and a TPU v3-8
#: on these models (Figure 2a's ASIC trend), giving the Figure 3
#: "Current" platform.
TABLE_I: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="VGG-19",
            nn_type=NNType.CNN,
            task="Image classification",
            batch_size=2048,
            model_bytes=_mb(548.0),
            sample_rate=3062,
            input_type=InputType.IMAGE,
            legacy_gpu_rate=95,
        ),
        Workload(
            name="Resnet-50",
            nn_type=NNType.CNN,
            task="Image classification",
            batch_size=8192,
            model_bytes=_mb(97.5),
            sample_rate=7431,
            input_type=InputType.IMAGE,
            legacy_gpu_rate=210,
        ),
        Workload(
            name="Inception-v4",
            nn_type=NNType.CNN,
            task="Image classification",
            batch_size=2048,
            model_bytes=_mb(162.7),
            sample_rate=1669,
            input_type=InputType.IMAGE,
            legacy_gpu_rate=52,
        ),
        Workload(
            name="RNN-S",
            nn_type=NNType.RNN,
            task="Image captioning",
            batch_size=4096,
            model_bytes=_mb(1.0),
            sample_rate=12022,
            input_type=InputType.IMAGE,
            legacy_gpu_rate=380,
        ),
        Workload(
            name="RNN-L",
            nn_type=NNType.RNN,
            task="Image captioning",
            batch_size=2048,
            model_bytes=_mb(16.0),
            sample_rate=6495,
            input_type=InputType.IMAGE,
            legacy_gpu_rate=200,
        ),
        Workload(
            name="Transformer-SR",
            nn_type=NNType.TRANSFORMER,
            task="Speech recognition",
            batch_size=512,
            model_bytes=_mb(268.3),
            sample_rate=2001,
            input_type=InputType.AUDIO,
            legacy_gpu_rate=62,
        ),
        Workload(
            name="Transformer-AA",
            nn_type=NNType.TRANSFORMER,
            task="Audio analysis",
            batch_size=512,
            model_bytes=_mb(162.5),
            sample_rate=2889,
            input_type=InputType.AUDIO,
            legacy_gpu_rate=90,
        ),
    )
}


#: Extension workloads beyond Table I — kept separate so the paper's
#: tables stay verbatim.  CNN-Video is the §V-C "new input form" example
#: carried to completion: a 3D-CNN action-recognition job on 16-frame
#: clips (rates in clips/s; a clip is ~8 effective images of prep work).
EXTENSION_WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="CNN-Video",
            nn_type=NNType.CNN,
            task="Video classification",
            batch_size=256,
            model_bytes=_mb(120.0),
            sample_rate=620,
            input_type=InputType.VIDEO,
            legacy_gpu_rate=18,
        ),
    )
}


#: The short names the paper also uses, case-folded.
_ALIASES = {
    "tf-sr": "Transformer-SR",
    "tf-aa": "Transformer-AA",
    "resnet50": "Resnet-50",
    "vgg19": "VGG-19",
}

#: Every registry name and alias, case-folded, to its workload: built
#: once, so a lookup is one ``str.lower`` and one dict probe.  A Table I
#: name shadows an extension name that folds the same way.
_BY_FOLDED_NAME: Dict[str, Workload] = {
    key.lower(): workload
    for registry in (EXTENSION_WORKLOADS, TABLE_I)
    for key, workload in registry.items()
}
_BY_FOLDED_NAME.update(
    (alias, _BY_FOLDED_NAME[target.lower()]) for alias, target in _ALIASES.items()
)


def get_workload(name: str) -> Workload:
    """Look up a workload by name — the seven Table I rows plus the
    extension workloads (case-insensitive; accepts the short TF-SR /
    TF-AA aliases the paper also uses)."""
    workload = _BY_FOLDED_NAME.get(name.lower())
    if workload is None:
        known = sorted(TABLE_I) + sorted(EXTENSION_WORKLOADS)
        raise ConfigError(f"unknown workload {name!r}; known: {known}")
    return workload


def workload_names() -> List[str]:
    return list(TABLE_I)


def image_workloads() -> List[Workload]:
    return [w for w in TABLE_I.values() if w.input_type is InputType.IMAGE]


def audio_workloads() -> List[Workload]:
    return [w for w in TABLE_I.values() if w.input_type is InputType.AUDIO]
