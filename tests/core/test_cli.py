"""Tests for the command-line interface."""

import json

import pytest

from repro import api
from repro.cli import build_parser, main


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "Resnet-50" in out
    assert "Transformer-AA" in out


def test_simulate_command(capsys):
    assert main(["simulate", "Resnet-50", "-a", "trainbox", "-n", "64"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "bottleneck" in out


def test_simulate_with_batch(capsys):
    assert main(["simulate", "Resnet-50", "-n", "8", "-b", "512"]) == 0
    assert "512" in capsys.readouterr().out


def test_ladder_command(capsys):
    assert main(["ladder", "tf-aa", "-n", "64"]) == 0
    out = capsys.readouterr().out
    for name in ("baseline", "baseline+acc", "trainbox"):
        assert name in out


def test_sweep_command(capsys):
    assert main(["sweep", "Inception-v4", "-a", "baseline", "-n", "32"]) == 0
    out = capsys.readouterr().out
    assert "host_cpu" in out  # saturation visible


def test_plan_command(capsys):
    assert main(["plan", "Transformer-SR", "-n", "64", "--items", "1000"]) == 0
    out = capsys.readouterr().out
    assert "prep-pool FPGAs" in out
    assert "meets target" in out


def test_plan_describe_reports_each_compiled_pipeline(capsys):
    # The greps of CI's compiled prep plan smoke, in process.
    assert main(["plan", "describe", "image", "--size", "64", "-b", "8"]) == 0
    image = capsys.readouterr().out
    assert "[0] decode_jpeg+random_crop+mirror " in image
    assert "lockstep_min=" in image
    assert "noise_table" in image
    assert main(["plan", "describe", "audio", "-b", "8"]) == 0
    audio = capsys.readouterr().out
    assert "[0] spectrogram " in audio
    assert "hann_window" in audio
    assert main(
        ["plan", "describe", "image-png", "--size", "64", "-b", "8"]
    ) == 0
    png = capsys.readouterr().out
    assert "[0] decode_png " in png
    assert "deflate_luts" not in png
    with pytest.raises(SystemExit, match="unknown pipeline 'foo'"):
        main(["plan", "describe", "foo"])


def test_simulate_engine_flag(capsys):
    assert main(["simulate", "Resnet-50", "-n", "8", "-e", "des"]) == 0
    out = capsys.readouterr().out
    assert "engine        : des" in out
    assert "throughput" in out


def test_simulate_trace_and_metrics_flags(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "manifest.json"
    assert main([
        "simulate", "Resnet-50", "-n", "8", "-e", "flow",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    from repro.obs import load_manifest

    manifest = load_manifest(metrics_path)
    assert manifest["counters"]["engine.flow.runs"] == 1


def test_trace_command_reconciles(capsys, tmp_path):
    import json

    out_path = tmp_path / "fig21.json"
    assert main([
        "trace", "Inception-v4", "-a", "trainbox", "-n", "16",
        "-e", "des", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "trace written" in out
    assert "RECONCILIATION FAILURE" not in out
    assert json.loads(out_path.read_text())["traceEvents"]


def test_profile_command(capsys):
    assert main(["profile", "Resnet-50", "-n", "8", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "span" in out
    assert "counter" in out
    assert "engine.analytical.runs" in out


def test_sweep_metrics_flag(capsys, tmp_path):
    metrics_path = tmp_path / "sweep-manifest.json"
    assert main([
        "sweep", "Resnet-50", "-a", "trainbox", "-n", "8",
        "--metrics", str(metrics_path),
    ]) == 0
    from repro.obs import load_manifest

    manifest = load_manifest(metrics_path)
    assert manifest["counters"]["sweep.points"] == 4


def test_unknown_engine_exits():
    with pytest.raises(SystemExit):
        main(["simulate", "Resnet-50", "-e", "quantum"])


def test_unknown_architecture_exits():
    with pytest.raises(SystemExit):
        main(["simulate", "Resnet-50", "-a", "warp-drive"])


def test_unknown_workload_raises():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        main(["simulate", "GPT-9"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_chaos_schedule_mode(capsys):
    assert main([
        "chaos", "--fail", "tbox0_fpga0:10:40", "-n", "32",
        "--horizon", "60",
    ]) == 0
    out = capsys.readouterr().out
    assert "tbox0_fpga0" in out
    assert "mean" in out and "samples/s" in out


def test_chaos_schedule_mode_bad_spec():
    with pytest.raises(SystemExit):
        main(["chaos", "--fail", "nonsense"])
    with pytest.raises(SystemExit):
        main(["chaos", "--fail", "dev:not_a_time"])


def test_chaos_drill_smoke(capsys):
    # One worker, tiny dataset: exercises the full drill quickly.
    assert main([
        "chaos", "--workers", "2", "--samples", "8", "--batch", "4",
        "--timeout", "2.0",
    ]) == 0
    out = capsys.readouterr().out
    for scenario in ("crash", "hang", "lost-result", "poison"):
        assert scenario in out
    assert "bit-identical" in out


@pytest.mark.parametrize("alias", sorted(api.ARCHS))
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "Resnet-50", "-n", "16"],
        ["report", "Resnet-50", "-n", "16"],
        ["chaos", "--fail", "acc0:10:40", "-n", "16"],
    ],
    ids=["simulate", "report", "chaos-fail"],
)
def test_every_arch_alias_is_accepted(argv, alias, capsys):
    assert main(argv + ["-a", alias]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("verb", ["simulate", "report"])
def test_unknown_arch_is_a_usage_error(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "Resnet-50", "-a", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_report_contains_key_facts(capsys):
    assert main(["report", "Inception-v4", "-n", "64", "-a", "baseline"]) == 0
    report = capsys.readouterr().out
    assert "Inception-v4" in report
    assert "bottleneck" in report
    assert "host requirements" in report
    assert "x" in report  # normalized figures


def test_report_json_nulls_infinite_rates(capsys):
    assert main(["report", "Resnet-50", "-n", "16", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workload"] == "Resnet-50"
    assert data["n_accelerators"] == 16
    assert data["throughput"] > 0
    assert "breakdown_shares" in data
    # Infinite rates serialize as null.
    assert all(
        v is None or v > 0 for v in data["resource_rates"].values()
    )
    assert None in data["resource_rates"].values()


def test_ladder_uses_the_registry_instances():
    from repro.core.config import ArchitectureConfig
    from repro.cli import _LADDER

    assert tuple(api.ARCHS[a] for a in _LADDER) == tuple(
        ArchitectureConfig.figure19_ladder()
    )
