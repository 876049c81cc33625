"""Scenario-level checks: one training scenario built from names or
objects, its initialization plan, and its report."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.core.config import ArchitectureConfig
from repro.core.initializer import TrainInitializer
from repro.core.server import build_server
from repro.errors import ConfigError
from repro.workloads.registry import get_workload


def test_accepts_workload_and_arch_objects():
    result = api.simulate(
        get_workload("VGG-19"), ArchitectureConfig.baseline(), 16
    )
    assert result.arch_name == "baseline"
    assert result.workload_name == "VGG-19"


def test_unknown_arch_name_rejected():
    with pytest.raises(ConfigError):
        api.resolve_arch("warp-drive")
    with pytest.raises(ConfigError):
        api.simulate("Resnet-50", "warp-drive", 16)


def test_plan_requires_trainbox():
    server = build_server(api.resolve_arch("baseline"), 16)
    with pytest.raises(ConfigError):
        TrainInitializer(server).plan(get_workload("Resnet-50"))


def test_to_dict_is_json_serializable(capsys):
    assert main(
        ["report", "Resnet-50", "-n", "16", "-a", "trainbox", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workload"] == "Resnet-50"
    assert data["throughput"] > 0
    assert "breakdown_shares" in data
    # Infinite rates serialize as null.
    assert all(
        v is None or v > 0 for v in data["resource_rates"].values()
    )


def test_cli_report_command(capsys):
    assert main(["report", "Resnet-50", "-n", "16"]) == 0
    assert "bottleneck" in capsys.readouterr().out
    assert main(["report", "Resnet-50", "-n", "16", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_accelerators"] == 16
