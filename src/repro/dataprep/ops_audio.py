"""Audio data-preparation operations (the Table III engine set).

Pipeline order follows Table III: spectrogram → masking → norm, with the
Mel filter bank between spectrogram and masking (SpecAugment applies
masks on the Mel representation, §VII-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep import cost as costmod
from repro.dataprep.cost import OpCost, cpu_mem_traffic
import repro.dataprep.audio.mel as melmod
import repro.dataprep.audio.stft as stftmod
from repro.dataprep.pipeline import PrepOp, SampleSpec


@dataclass
class Spectrogram(PrepOp):
    """PCM stream → power spectrogram via many small FFTs (the op class
    the paper says favors FPGAs over GPUs, §V-B)."""

    n_fft: int = stftmod.N_FFT
    win_length: int = stftmod.WIN_LENGTH
    hop_length: int = stftmod.HOP_LENGTH
    name: str = "spectrogram"
    kind: str = "spectrogram"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 1:
            raise DataprepError("spectrogram expects a 1-D PCM stream")
        signal = data.astype(np.float64)
        if data.dtype == np.int16:
            signal /= 32768.0
        return stftmod.power_spectrogram(
            signal, self.n_fft, self.win_length, self.hop_length
        ).astype(np.float32)

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        """Batched STFT for equal-length utterances: frame every signal,
        then run **one** FFT over all N×frames windows at once.  Ragged
        batches (lists) fall back to the per-sample loop."""
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 2:
            raise DataprepError("spectrogram expects an NxT PCM stack")
        signal = batch.astype(np.float64)
        if batch.dtype == np.int16:
            signal /= 32768.0
        n_batch, n = signal.shape
        frames = stftmod.num_frames(n, self.hop_length, self.win_length)
        padded_len = (frames - 1) * self.hop_length + self.win_length
        padded = np.zeros((n_batch, padded_len), dtype=np.float64)
        padded[:, :n] = signal
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, self.win_length, axis=1
        )[:, :: self.hop_length].copy()
        windows *= stftmod.hann_window(self.win_length)[None, None, :]
        spectrum = np.fft.rfft(
            windows.reshape(n_batch * frames, self.win_length),
            n=self.n_fft,
            axis=1,
        )
        power = spectrum.real**2 + spectrum.imag**2
        return power.reshape(n_batch, frames, -1).astype(np.float32)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("audio_pcm", self.name)
        n_samples = spec.shape[0]
        frames = stftmod.num_frames(n_samples, self.hop_length, self.win_length)
        bins = self.n_fft // 2 + 1
        butterflies = frames * self.n_fft * math.log2(self.n_fft)
        out_bytes = float(frames * bins * 4)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.STFT_CYCLES_PER_BUTTERFLY * butterflies,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            # The per-frame FFT working set fits in L1; only the input
            # stream and the output spectrogram reach DRAM.
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("spectrogram", (frames, bins), out_bytes)


@dataclass
class MelFilterBank(PrepOp):
    """Power spectrogram → Mel spectrogram (log-compressed)."""

    n_mels: int = melmod.N_MELS
    sample_rate: int = stftmod.SAMPLE_RATE
    log: bool = True
    name: str = "mel_filter_bank"
    kind: str = "mel"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 2:
            raise DataprepError("mel_filter_bank expects (frames x bins)")
        n_fft = (data.shape[1] - 1) * 2
        bank = melmod.mel_filter_bank(self.n_mels, n_fft, self.sample_rate)
        out = data.astype(np.float64) @ bank.T
        if self.log:
            out = np.log(out + 1e-10)
        return out.astype(np.float32)

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 3:
            raise DataprepError("mel_filter_bank expects (N x frames x bins)")
        n_fft = (batch.shape[2] - 1) * 2
        bank = melmod.mel_filter_bank(self.n_mels, n_fft, self.sample_rate)
        # Stacked matmul runs the same per-slice GEMM the scalar path
        # does, so the batch is bit-identical.
        out = batch.astype(np.float64) @ bank.T
        if self.log:
            out = np.log(out + 1e-10)
        return out.astype(np.float32)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("spectrogram", self.name)
        frames = spec.shape[0]
        out_bytes = float(frames * self.n_mels * 4)
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.MEL_CYCLES_PER_BIN * frames * self.n_mels,
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("mel", (frames, self.n_mels), out_bytes)


@dataclass
class SpecMasking(PrepOp):
    """SpecAugment-style time and frequency masking on the Mel features."""

    max_time_mask: int = 32
    max_freq_mask: int = 16
    name: str = "masking"
    kind: str = "masking"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 2:
            raise DataprepError("masking expects (frames x mels)")
        frames, mels = data.shape
        out = data.copy()
        fill = float(data.mean())
        t = int(rng.integers(0, min(self.max_time_mask, frames) + 1))
        if t:
            t0 = int(rng.integers(0, frames - t + 1))
            out[t0 : t0 + t, :] = fill
        f = int(rng.integers(0, min(self.max_freq_mask, mels) + 1))
        if f:
            f0 = int(rng.integers(0, mels - f + 1))
            out[:, f0 : f0 + f] = fill
        return out

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 3:
            raise DataprepError("masking expects (N x frames x mels)")
        frames, mels = batch.shape[1:]
        for sample, rng in zip(batch, rngs):
            # The masks are per-sample slice writes either way; batching
            # just drops the per-sample copy by mutating the owned stack.
            fill = float(sample.mean())
            t = int(rng.integers(0, min(self.max_time_mask, frames) + 1))
            if t:
                t0 = int(rng.integers(0, frames - t + 1))
                sample[t0 : t0 + t, :] = fill
            f = int(rng.integers(0, min(self.max_freq_mask, mels) + 1))
            if f:
                f0 = int(rng.integers(0, mels - f + 1))
                sample[:, f0 : f0 + f] = fill
        return batch

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("mel", self.name)
        cells = spec.shape[0] * spec.shape[1]
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.MASK_CYCLES_PER_BIN * cells,
            bytes_in=spec.nbytes,
            bytes_out=spec.nbytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, spec.nbytes),
        )
        return op, spec


@dataclass
class Normalize(PrepOp):
    """Zero-mean / unit-variance normalization over the whole utterance."""

    eps: float = 1e-6
    name: str = "norm"
    kind: str = "norm"

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 2:
            raise DataprepError("norm expects (frames x mels)")
        mean = data.mean()
        std = data.std()
        return ((data - mean) / (std + self.eps)).astype(np.float32)

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        if not isinstance(batch, np.ndarray):
            return super().apply_batch(batch, rngs)
        if batch.ndim != 3:
            raise DataprepError("norm expects (N x frames x mels)")
        # Per-sample statistics reduce over each contiguous slice exactly
        # as the scalar path does; the normalization itself is one fused
        # float64 broadcast over the stack (``data.mean()`` is a typed
        # float64 scalar, so the scalar path promotes to float64 too).
        means = np.array([sample.mean() for sample in batch])
        divisors = np.array([sample.std() for sample in batch]) + self.eps
        return (
            (batch - means[:, None, None]) / divisors[:, None, None]
        ).astype(np.float32)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("mel", self.name)
        cells = spec.shape[0] * spec.shape[1]
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=costmod.NORM_CYCLES_PER_BIN * cells,
            bytes_in=spec.nbytes,
            bytes_out=spec.nbytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, spec.nbytes),
        )
        return op, spec


@dataclass
class TimeWarp(PrepOp):
    """SpecAugment's time warping: stretch the features on one side of a
    random anchor frame and compress the other (linear interpolation).
    The third SpecAugment policy next to the two maskings (§VII-B cites
    the paper)."""

    max_warp: int = 16
    name: str = "time_warp"
    kind: str = "masking"

    def __post_init__(self) -> None:
        if self.max_warp < 0:
            raise DataprepError(f"max_warp must be >= 0: {self.max_warp}")

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 2:
            raise DataprepError("time_warp expects (frames x mels)")
        frames = data.shape[0]
        limit = min(self.max_warp, (frames - 1) // 2)
        if limit == 0:
            return data.copy()
        anchor = int(rng.integers(limit, frames - limit))
        shift = int(rng.integers(-limit, limit + 1))
        if shift == 0:
            return data.copy()
        # Piecewise-linear remap of frame indices: [0, anchor] stretches
        # to [0, anchor+shift], the remainder compresses.
        src_positions = np.empty(frames)
        left = np.linspace(0.0, anchor, anchor + shift + 1)
        right = np.linspace(anchor, frames - 1, frames - (anchor + shift))
        src_positions[: anchor + shift + 1] = left
        src_positions[anchor + shift :] = right
        base = np.floor(src_positions).astype(int)
        base = np.clip(base, 0, frames - 2)
        frac = (src_positions - base)[:, None]
        warped = data[base] * (1.0 - frac) + data[base + 1] * frac
        return warped.astype(data.dtype)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("mel", self.name)
        cells = spec.shape[0] * spec.shape[1]
        op = OpCost(
            name=self.name,
            kind=self.kind,
            # Two reads + interpolation per cell ≈ the masking pass cost.
            cpu_cycles=costmod.MASK_CYCLES_PER_BIN * cells,
            bytes_in=spec.nbytes,
            bytes_out=spec.nbytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, spec.nbytes),
        )
        return op, spec


@dataclass
class Mfcc(PrepOp):
    """Mel-frequency cepstral coefficients: DCT-II over the log-Mel axis
    (the classic compact speech feature, selectable instead of raw Mel)."""

    n_coefficients: int = 13
    name: str = "mfcc"
    kind: str = "mel"

    def __post_init__(self) -> None:
        if self.n_coefficients <= 0:
            raise DataprepError("n_coefficients must be positive")

    def apply(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if data.ndim != 2:
            raise DataprepError("mfcc expects (frames x mels)")
        mels = data.shape[1]
        if self.n_coefficients > mels:
            raise DataprepError(
                f"cannot keep {self.n_coefficients} coefficients of {mels} mels"
            )
        n = np.arange(mels)
        k = np.arange(self.n_coefficients)[:, None]
        basis = np.cos(np.pi * k * (2 * n + 1) / (2 * mels))
        basis[0] *= 1.0 / np.sqrt(2.0)
        basis *= np.sqrt(2.0 / mels)
        return (data.astype(np.float64) @ basis.T).astype(np.float32)

    def cost(self, spec: SampleSpec) -> Tuple[OpCost, SampleSpec]:
        spec.expect("mel", self.name)
        frames, mels = spec.shape
        out_bytes = float(frames * self.n_coefficients * 4)
        macs = frames * mels * self.n_coefficients
        op = OpCost(
            name=self.name,
            kind=self.kind,
            cpu_cycles=4.2 * macs,  # dense matmul, same MAC cost as mel
            bytes_in=spec.nbytes,
            bytes_out=out_bytes,
            mem_traffic=cpu_mem_traffic(spec.nbytes, out_bytes),
        )
        return op, SampleSpec("mfcc", (frames, self.n_coefficients), out_bytes)


def audio_pipeline(
    n_mels: int = melmod.N_MELS,
    max_time_mask: int = 32,
    max_freq_mask: int = 16,
) -> "PrepPipeline":
    """The full Table III audio pipeline: spectrogram → mel → masking →
    norm."""
    from repro.dataprep.pipeline import PrepPipeline

    return PrepPipeline(
        [
            Spectrogram(),
            MelFilterBank(n_mels=n_mels),
            SpecMasking(max_time_mask, max_freq_mask),
            Normalize(),
        ],
        name="audio-prep",
    )
