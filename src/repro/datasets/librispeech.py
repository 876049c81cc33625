"""Synthetic Librispeech-like dataset: speech-shaped PCM streams.

Utterances are harmonic tone stacks with a slow amplitude envelope and a
noise floor — spectrally structured enough that Mel features are
non-trivial — with a duration distribution centered on the paper's 6.96 s
average (§III-B1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep.pipeline import SampleSpec


@dataclass(frozen=True)
class SpeechDatasetSpec:
    """Static description used by the simulator (no data generated)."""

    name: str
    mean_duration_s: float
    sample_rate: int
    num_items: int
    bytes_per_sample: int = 2  # 16-bit PCM

    @property
    def mean_samples(self) -> int:
        return int(round(self.mean_duration_s * self.sample_rate))

    def sample_spec(self) -> SampleSpec:
        return SampleSpec(
            "audio_pcm",
            (self.mean_samples,),
            float(self.mean_samples * self.bytes_per_sample),
        )


#: Librispeech as the paper uses it: streams of 6.96 s on average, 16 kHz.
LIBRISPEECH_LIKE = SpeechDatasetSpec(
    name="librispeech-like",
    mean_duration_s=6.96,
    sample_rate=16_000,
    num_items=281_000,
)


def synthesize_utterance(
    rng: np.random.Generator, n_samples: int, sample_rate: int, speaker: int
) -> np.ndarray:
    """An int16 PCM stream with speech-like structure.

    A speaker-keyed fundamental (~90-220 Hz) with harmonics, a syllabic
    4 Hz amplitude envelope, and a noise floor.
    """
    if n_samples <= 0:
        raise DataprepError("n_samples must be positive")
    t = np.arange(n_samples) / sample_rate
    f0 = 90.0 + (speaker % 16) * 8.0
    signal = np.zeros(n_samples)
    for harmonic in range(1, 6):
        signal += np.sin(2 * np.pi * f0 * harmonic * t) / harmonic
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi))
    signal = signal * envelope + rng.normal(0.0, 0.05, n_samples)
    peak = np.max(np.abs(signal))
    return np.clip(signal / (peak + 1e-9) * 0.8 * 32767, -32768, 32767).astype(
        np.int16
    )


class SyntheticSpeechDataset:
    """Generates (pcm_int16, transcript_label) items deterministically."""

    def __init__(
        self,
        num_items: int,
        mean_duration_s: float = 6.96,
        duration_jitter: float = 0.25,
        sample_rate: int = 16_000,
        num_speakers: int = 40,
        seed: int = 0,
    ) -> None:
        if num_items <= 0:
            raise DataprepError("num_items must be positive")
        if mean_duration_s <= 0:
            raise DataprepError("mean_duration_s must be positive")
        if not 0 <= duration_jitter < 1:
            raise DataprepError("duration_jitter must be in [0, 1)")
        self.num_items = num_items
        self.mean_duration_s = mean_duration_s
        self.duration_jitter = duration_jitter
        self.sample_rate = sample_rate
        self.num_speakers = num_speakers
        self.seed = seed

    def __len__(self) -> int:
        return self.num_items

    def duration_of(self, index: int) -> float:
        """Deterministic per-item duration in seconds."""
        rng = np.random.default_rng((self.seed, index, 1))
        jitter = rng.uniform(-self.duration_jitter, self.duration_jitter)
        return self.mean_duration_s * (1.0 + jitter)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        if not 0 <= index < self.num_items:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, index))
        speaker = index % self.num_speakers
        n_samples = int(round(self.duration_of(index) * self.sample_rate))
        return (
            synthesize_utterance(rng, n_samples, self.sample_rate, speaker),
            speaker,
        )

    def measured_spec(self, probe_items: int = 4) -> SampleSpec:
        probe = min(probe_items, self.num_items)
        sizes = [self[i][0].shape[0] for i in range(probe)]
        mean_samples = int(np.mean(sizes))
        return SampleSpec("audio_pcm", (mean_samples,), float(mean_samples * 2))
