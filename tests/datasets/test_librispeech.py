"""Tests for the synthetic speech dataset."""

import numpy as np
import pytest

from repro.datasets.librispeech import (
    LIBRISPEECH_LIKE,
    SyntheticSpeechDataset,
    synthesize_utterance,
)
from repro.errors import DataprepError


def test_items_are_int16_pcm():
    ds = SyntheticSpeechDataset(num_items=2, mean_duration_s=0.5)
    pcm, speaker = ds[0]
    assert pcm.dtype == np.int16
    assert pcm.ndim == 1
    assert 0 <= speaker < ds.num_speakers


def test_iteration_and_len():
    # Iteration runs on __getitem__, which ends it with IndexError.
    ds = SyntheticSpeechDataset(num_items=3, mean_duration_s=0.1)
    items = list(ds)
    assert len(items) == len(ds) == 3
    for i, (pcm, speaker) in enumerate(items):
        assert np.array_equal(pcm, ds[i][0]) and speaker == ds[i][1]
    with pytest.raises(IndexError):
        ds[3]


def test_determinism():
    a = SyntheticSpeechDataset(num_items=2, mean_duration_s=0.3, seed=5)
    b = SyntheticSpeechDataset(num_items=2, mean_duration_s=0.3, seed=5)
    assert np.array_equal(a[1][0], b[1][0])


def test_durations_jitter_around_mean():
    ds = SyntheticSpeechDataset(
        num_items=50, mean_duration_s=2.0, duration_jitter=0.25
    )
    durations = [ds.duration_of(i) for i in range(50)]
    assert min(durations) >= 2.0 * 0.75 - 1e-9
    assert max(durations) <= 2.0 * 1.25 + 1e-9
    assert abs(np.mean(durations) - 2.0) < 0.2


def test_signal_is_spectrally_structured():
    """The synthetic speech must have a harmonic peak, not white noise."""
    rng = np.random.default_rng(0)
    pcm = synthesize_utterance(rng, 16_000, 16_000, speaker=4)
    spectrum = np.abs(np.fft.rfft(pcm.astype(float)))
    f0_bin = int((90 + 4 * 8) * 16_000 / 16_000)  # fundamental, 1 Hz bins
    peak_region = spectrum[f0_bin - 5 : f0_bin + 6].max()
    noise_floor = np.median(spectrum)
    assert peak_region > 20 * noise_floor


def test_amplitude_bounded():
    rng = np.random.default_rng(0)
    pcm = synthesize_utterance(rng, 8000, 16_000, speaker=0)
    assert np.abs(pcm).max() <= 32767


def test_validation():
    with pytest.raises(DataprepError):
        SyntheticSpeechDataset(num_items=0)
    with pytest.raises(DataprepError):
        SyntheticSpeechDataset(num_items=1, mean_duration_s=0)
    with pytest.raises(DataprepError):
        SyntheticSpeechDataset(num_items=1, duration_jitter=1.0)
    with pytest.raises(DataprepError):
        synthesize_utterance(np.random.default_rng(0), 0, 16_000, 0)
    ds = SyntheticSpeechDataset(num_items=1, mean_duration_s=0.1)
    with pytest.raises(IndexError):
        ds[5]


def test_librispeech_like_spec():
    """The paper's geometry: 6.96 s average at 16 kHz, 16-bit."""
    spec = LIBRISPEECH_LIKE.sample_spec()
    assert spec.kind == "audio_pcm"
    assert spec.shape[0] == round(6.96 * 16_000)
    assert spec.nbytes == spec.shape[0] * 2


def test_measured_spec():
    ds = SyntheticSpeechDataset(num_items=3, mean_duration_s=0.2)
    spec = ds.measured_spec(probe_items=3)
    assert spec.kind == "audio_pcm"
    assert spec.nbytes == spec.shape[0] * 2
