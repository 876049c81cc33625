"""Tests for the Table I workload registry."""

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    TABLE_I,
    InputType,
    NNType,
    audio_workloads,
    estimated_flops_per_sample,
    get_workload,
    image_workloads,
    implied_utilization,
    workload_names,
)
from repro.workloads.registry import EXTENSION_WORKLOADS
from repro import units


def test_seven_workloads():
    assert len(TABLE_I) == 7
    assert set(workload_names()) == {
        "VGG-19",
        "Resnet-50",
        "Inception-v4",
        "RNN-S",
        "RNN-L",
        "Transformer-SR",
        "Transformer-AA",
    }


def test_table1_rows_verbatim():
    resnet = get_workload("Resnet-50")
    assert resnet.batch_size == 8192
    assert resnet.model_bytes == pytest.approx(97.5 * units.MB)
    assert resnet.sample_rate == 7431
    assert resnet.nn_type is NNType.CNN

    tf_sr = get_workload("Transformer-SR")
    assert tf_sr.batch_size == 512
    assert tf_sr.model_bytes == pytest.approx(268.3 * units.MB)
    assert tf_sr.sample_rate == 2001
    assert tf_sr.task == "Speech recognition"


def test_input_type_partition():
    images = image_workloads()
    audio = audio_workloads()
    assert len(images) == 5
    assert len(audio) == 2
    assert all(w.input_type is InputType.IMAGE for w in images)
    assert {w.name for w in audio} == {"Transformer-SR", "Transformer-AA"}


def test_aliases_and_case_insensitive_lookup():
    assert get_workload("tf-sr").name == "Transformer-SR"
    assert get_workload("TF-AA").name == "Transformer-AA"
    assert get_workload("resnet-50").name == "Resnet-50"
    assert get_workload("vgg19").name == "VGG-19"


def test_unknown_workload():
    with pytest.raises(ConfigError):
        get_workload("GPT-7")


def test_lookup_index_covers_every_name_alias_and_case():
    for registry in (TABLE_I, EXTENSION_WORKLOADS):
        for name, workload in registry.items():
            for spelling in (name, name.lower(), name.upper(), name.swapcase()):
                assert get_workload(spelling) is workload
    for alias, name in (
        ("tf-sr", "Transformer-SR"),
        ("Tf-Aa", "Transformer-AA"),
        ("RESNET50", "Resnet-50"),
        ("Vgg19", "VGG-19"),
    ):
        assert get_workload(alias) is TABLE_I[name]


@pytest.mark.parametrize("name", ["GPT-7", "", "resnet", "tf-sr ", "Resnet_50"])
def test_unknown_workload_error_lists_every_known_name(name):
    known = sorted(TABLE_I) + sorted(EXTENSION_WORKLOADS)
    with pytest.raises(ConfigError) as err:
        get_workload(name)
    assert str(err.value) == f"unknown workload {name!r}; known: {known}"


def test_accelerator_spec_matches_table():
    for workload in TABLE_I.values():
        spec = workload.accelerator_spec()
        assert spec.throughput(workload.batch_size) == pytest.approx(
            workload.sample_rate
        )


def test_legacy_gpu_much_slower():
    for workload in TABLE_I.values():
        assert workload.legacy_gpu_rate < workload.sample_rate / 20


def test_pipeline_binding():
    assert get_workload("Resnet-50").prep_pipeline().name == "image-prep"
    assert get_workload("TF-SR").prep_pipeline().name == "audio-prep"


def test_dataset_spec_binding():
    assert get_workload("VGG-19").dataset_sample_spec().kind == "jpeg"
    assert get_workload("TF-AA").dataset_sample_spec().kind == "audio_pcm"


def test_implied_utilization_plausible():
    """Table I rates must imply TPU utilization in a sane band (guards
    against registry typos)."""
    for workload in TABLE_I.values():
        util = implied_utilization(workload.name, workload.sample_rate)
        assert 0.001 < util < 1.0, workload.name


def test_flops_estimates_exist_for_all():
    for name in TABLE_I:
        assert estimated_flops_per_sample(name) > 0
    with pytest.raises(ConfigError):
        estimated_flops_per_sample("nope")
