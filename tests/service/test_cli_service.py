"""CLI round-trips for the service: batch flags through ``serve``'s
config plumbing, the ``chaos --service`` drill's exit status, and the
pipelined ``client --requests-file`` mode against a live server."""

import json

import pytest

from repro import api, cli
from repro.service import ServerThread, ServiceClient


def _parse(argv):
    return cli.build_parser().parse_args(argv)


def test_serve_batch_flags_round_trip_into_the_live_config():
    args = _parse(
        ["serve", "--max-batch-points", "33", "--workers", "3"]
    )
    config = cli._service_config(args)
    assert config.max_batch_points == 33
    with ServerThread(config) as srv:
        with ServiceClient(*srv.address) as client:
            stats = client.stats()
    # Dispatch is work-conserving: there is no batch window to set.
    with pytest.raises(SystemExit):
        _parse(["serve", "--batch-window-ms", "7.5"])
    assert "batch_window_ms" not in stats["config"]
    assert stats["config"]["max_batch_points"] == 33
    assert stats["config"]["max_workers"] == 3


def test_serve_drain_timeout_flag_round_trips():
    args = _parse(["serve", "--drain-timeout", "3.5"])
    assert args.drain_timeout == 3.5
    config = cli._service_config(args)
    assert config.drain_timeout == 3.5
    # Default is the documented 10s budget.
    assert cli._service_config(_parse(["serve"])).drain_timeout == 10.0


def test_chaos_service_flags_parse():
    args = _parse(["chaos", "--service"])
    assert args.service is True
    assert args.seed is None  # falls back to the default seed pair
    args = _parse(["chaos", "--service", "--seed", "3", "--seed", "9"])
    assert args.seed == [3, 9]


def test_chaos_service_drill_passes_a_seed(capsys):
    # The live drill end to end: its kernel-dispatch faults fire on the
    # service's event-loop thread, its lone-item faults on engine threads.
    assert cli.main(["chaos", "--service", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "injected [" in out
    assert "service chaos drill passed (seed 5)" in out


def test_chaos_service_drill_failure_exits_1(monkeypatch, capsys):
    from repro.errors import ConfigError
    from repro.service import bench

    def broken(seed):
        raise ConfigError(f"accounting does not balance (seed {seed})")

    monkeypatch.setattr(bench, "run_chaos_drill", broken)
    assert cli.main(["chaos", "--service", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert "SERVICE CHAOS FAILURE" in captured.err
    assert "accounting does not balance (seed 5)" in captured.err
    assert "passed" not in captured.out


def test_serve_auto_workers_and_memo_default():
    from repro.service import default_workers

    config = cli._service_config(_parse(["serve"]))
    assert config.max_workers is None
    assert config.workers == default_workers()
    assert config.memo_entries == 4096
    with ServerThread(config) as srv:
        with ServiceClient(*srv.address) as client:
            stats = client.stats()
    assert stats["config"]["max_workers"] == default_workers()
    assert stats["config"]["memo_entries"] == 4096
    assert "batch_enabled" not in stats["config"]


def test_client_requests_file_pipelines_mixed_trace(tmp_path, capsys):
    requests = [
        api.SimulationRequest("Resnet-50", "trainbox", 64),
        api.SweepRequest(
            workloads=("VGG-19",), archs=("baseline",), scales=(4, 16)
        ),
        api.SimulationRequest("Resnet-50", "trainbox", 64),  # duplicate
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "# comment lines and blanks are skipped\n\n"
        + "\n".join(json.dumps(r.to_dict()) for r in requests)
        + "\n"
    )
    with ServerThread() as srv:
        host, port = srv.address
        rc = cli.main(
            [
                "client",
                "--requests-file", str(path),
                "--host", host,
                "--port", str(port),
            ]
        )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 requests" in out
    assert "0 failed" in out
    assert "computed: 2" in out  # the duplicate rode the memo/coalescer


def test_client_requests_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    try:
        cli._pipeline_requests(str(path))
    except SystemExit as exc:
        assert "not JSON" in str(exc)
    else:
        raise AssertionError("garbage JSONL must SystemExit")
