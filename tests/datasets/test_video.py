"""Tests for the synthetic video dataset and the video workload wiring."""

import numpy as np
import pytest

from repro.dataprep.ops_video import decode_clip
from repro.datasets.video import KINETICS_LIKE, SyntheticVideoDataset
from repro.errors import DataprepError
from repro.workloads.registry import (
    EXTENSION_WORKLOADS,
    InputType,
    get_workload,
)


def test_items_are_decodable_clips():
    ds = SyntheticVideoDataset(num_items=2, frames_per_clip=4, height=24, width=24)
    clip_bytes, label = ds[0]
    frames = decode_clip(clip_bytes)
    assert len(frames) == 4
    assert frames[0].shape == (24, 24, 3)
    assert 0 <= label < ds.num_classes


def test_motion_exists_between_frames():
    ds = SyntheticVideoDataset(num_items=4, frames_per_clip=6, height=32, width=32)
    clip, label = ds.raw_item(1)  # label 1 pans at nonzero velocity
    assert not np.array_equal(clip[0], clip[-1])


def test_iteration_and_len():
    # Iteration runs on __getitem__, which ends it with IndexError.
    ds = SyntheticVideoDataset(num_items=2, frames_per_clip=2, height=16, width=16)
    assert list(ds) == [ds[0], ds[1]]
    assert len(ds) == 2
    with pytest.raises(IndexError):
        ds[2]


def test_determinism():
    a = SyntheticVideoDataset(num_items=2, frames_per_clip=3, seed=3)
    b = SyntheticVideoDataset(num_items=2, frames_per_clip=3, seed=3)
    assert a[1][0] == b[1][0]


def test_validation():
    with pytest.raises(DataprepError):
        SyntheticVideoDataset(num_items=0)
    with pytest.raises(DataprepError):
        SyntheticVideoDataset(num_items=1, frames_per_clip=0)
    ds = SyntheticVideoDataset(num_items=1)
    with pytest.raises(IndexError):
        ds[1]


def test_kinetics_like_spec():
    spec = KINETICS_LIKE.sample_spec()
    assert spec.kind == "video_mjpeg"
    assert spec.shape == (16, 256, 256, 3)
    assert spec.nbytes == 16 * 45_000


def test_video_workload_registered():
    workload = get_workload("CNN-Video")
    assert workload.input_type is InputType.VIDEO
    assert workload.prep_pipeline().name == "video-prep"
    assert workload.dataset_sample_spec().kind == "video_mjpeg"
    assert "CNN-Video" in EXTENSION_WORKLOADS


def test_table1_unpolluted():
    from repro.workloads.registry import TABLE_I

    assert len(TABLE_I) == 7
    assert "CNN-Video" not in TABLE_I


def test_video_workload_simulates():
    from repro.core.analytical import TrainingScenario, simulate
    from repro.core.config import ArchitectureConfig

    workload = get_workload("CNN-Video")
    base = simulate(TrainingScenario(workload, ArchitectureConfig.baseline(), 64))
    tb = simulate(TrainingScenario(workload, ArchitectureConfig.trainbox(), 64))
    # Video prep is the heaviest of all: the baseline collapses and
    # TrainBox reaches the accelerator target (the gap is bounded at 64
    # devices only by the accelerators themselves).
    assert tb.throughput > 10 * base.throughput
    assert tb.bottleneck == "accelerator"
    assert base.bottleneck == "host_cpu"


def test_measured_spec():
    ds = SyntheticVideoDataset(num_items=2, frames_per_clip=3, height=24, width=24)
    spec = ds.measured_spec()
    assert spec.kind == "video_mjpeg"
    assert spec.nbytes > 0
