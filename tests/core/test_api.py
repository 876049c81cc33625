"""Facade and engine-protocol conformance across all three engines."""

import dataclasses

import pytest

from repro import api, obs
from repro.cache import ResultCache
from repro.core.config import ArchitectureConfig
from repro.core.results import SimulationOutcome
from repro.errors import ConfigError, SimulationError
from repro.workloads.registry import get_workload

ENGINES = list(api.ENGINE_NAMES)


def _run(engine, scale=8, **kwargs):
    return api.simulate(
        "Resnet-50", "trainbox", scale, engine=engine,
        des_iterations=30, **kwargs
    )


# -- conformance: every engine satisfies the shared result interface ---------


@pytest.mark.parametrize("engine", ENGINES)
def test_result_satisfies_shared_interface(engine):
    result = _run(engine)
    assert isinstance(result, SimulationOutcome)
    assert result.workload_name == "Resnet-50"
    assert result.arch_name == "trainbox"
    assert result.n_accelerators == 8
    assert result.batch_size > 0
    assert result.throughput > 0
    assert result.prep_rate > 0
    assert result.consume_rate > 0
    assert isinstance(result.bottleneck, str) and result.bottleneck


@pytest.mark.parametrize("engine", ENGINES)
def test_derived_properties_are_consistent(engine):
    result = _run(engine)
    assert result.prep_bound == (result.prep_rate < result.consume_rate)
    expected = result.n_accelerators * result.batch_size / result.throughput
    assert result.iteration_time == pytest.approx(expected)
    assert result.speedup_over(result) == pytest.approx(1.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_roundtrips_through_dict(engine):
    result = _run(engine)
    clone = type(result).from_dict(result.to_dict())
    assert clone.to_dict() == result.to_dict()


def test_engines_agree_on_steady_state():
    # The DES and the fluid engine model the same pipeline the
    # analytical law solves; their throughputs should be close.
    analytical = _run("analytical")
    for engine in ("des", "flow"):
        other = _run(engine)
        assert other.throughput == pytest.approx(
            analytical.throughput, rel=0.05
        )


# -- facade argument handling ------------------------------------------------


def test_string_and_object_arguments_are_equivalent():
    by_name = api.simulate("Resnet-50", "trainbox", 4)
    by_object = api.simulate(
        get_workload("Resnet-50"), ArchitectureConfig.trainbox(), 4
    )
    assert by_name == by_object


def test_batch_override_threads_through():
    result = api.simulate("Resnet-50", "trainbox", 8, batch_size=256)
    assert result.batch_size == 256


def test_des_within_two_percent_of_analytical():
    analytical = api.simulate("Resnet-50", "trainbox", 16)
    des = api.simulate(
        "Resnet-50", "trainbox", 16, engine="des", des_iterations=40
    )
    assert des.relative_error(analytical.throughput) < 0.02


def test_repeated_point_builds_the_server_once(monkeypatch):
    from repro.cache import clear_memo
    from repro.core import server as server_mod
    from repro.core.faults import FaultEvent, FaultSchedule

    builds = []
    original = server_mod.build_server

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    clear_memo()
    monkeypatch.setattr(server_mod, "build_server", counting)
    first = api.simulate("Resnet-50", "trainbox", 16)
    second = api.simulate("Resnet-50", "trainbox", 16)
    assert first == second
    assert len(builds) == 1
    # Fault-schedule windows price degraded copies of the same server.
    sched = FaultSchedule.of(FaultEvent("acc0", 10.0, 30.0))
    for engine in ENGINES:
        api.price_fault_schedule(
            "Resnet-50", "trainbox", 16, sched, 50.0, engine=engine,
            des_iterations=20,
        )
    assert len(builds) == 1


def test_arch_registry_shares_one_instance_per_alias():
    for alias, config in api.ARCHS.items():
        assert api.resolve_arch(alias) is config
        assert api.arch_alias(config) == alias
        # A value-equal rebuild maps back to the same alias.
        assert api.arch_alias(dataclasses.replace(config)) == alias
    with pytest.raises(TypeError):
        api.ARCHS["bespoke"] = ArchitectureConfig.trainbox()


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError, match="unknown engine"):
        api.simulate("Resnet-50", "trainbox", 4, engine="quantum")


def test_unknown_arch_rejected():
    with pytest.raises(ConfigError, match="unknown architecture"):
        api.simulate("Resnet-50", "warp-drive", 4)


@pytest.mark.parametrize("engine", ENGINES)
def test_cache_roundtrip(engine, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = _run(engine, cache=cache)
    assert cache.stats.misses == 1 and cache.stats.stores == 1
    second = _run(engine, cache=cache)
    assert cache.stats.hits == 1
    assert second.to_dict() == first.to_dict()


def test_cache_accepts_directory_path(tmp_path):
    _run("analytical", cache=tmp_path / "c")
    again = _run("analytical", cache=str(tmp_path / "c"))
    assert again.throughput > 0
    assert len(ResultCache(tmp_path / "c")) == 1


def test_traced_run_bypasses_cache_read(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _run("des", cache=cache)
    tracer = obs.Tracer()
    traced = _run("des", cache=cache, trace=tracer)
    # Recomputed (no cache read), so the trace has real spans.
    assert cache.stats.hits == 0
    assert tracer.model_spans(cat=obs.ITERATION_CATEGORY)
    assert traced.throughput > 0


# -- trace reconciliation (the acceptance criterion) -------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_trace_reconciles_with_iteration_time(engine):
    tracer = obs.Tracer()
    result = _run(engine, scale=16, trace=tracer)
    traced = api.trace_iteration_time(tracer)
    assert traced == pytest.approx(result.iteration_time, rel=0.01)


# -- error-message identity (scenario named in failures) ---------------------


def test_iteration_time_error_names_scenario():
    result = _run("analytical")
    broken = dataclasses.replace(result, throughput=0.0)
    with pytest.raises(SimulationError) as err:
        broken.iteration_time
    message = str(err.value)
    assert "Resnet-50" in message
    assert "trainbox" in message
    assert "n=8" in message


def test_speedup_over_error_names_scenario():
    result = _run("analytical")
    broken = dataclasses.replace(result, throughput=0.0)
    with pytest.raises(SimulationError) as err:
        result.speedup_over(broken)
    message = str(err.value)
    assert "Resnet-50" in message
    assert "trainbox" in message
    assert "n=8" in message


# -- removed deprecation shims ------------------------------------------------


def test_des_station_utilization_shim_is_gone():
    # The deprecated alias was removed with CACHE_VERSION 3; the real
    # field is the only spelling.
    result = _run("des")
    assert not hasattr(result, "station_utilization")
    assert result.resource_utilization


# -- versioned request objects ------------------------------------------------


def test_simulation_request_matches_legacy_call():
    request = api.SimulationRequest("Resnet-50", "trainbox", 16)
    assert api.simulate(request) == api.simulate("Resnet-50", "trainbox", 16)


def test_request_round_trips_through_dict():
    request = api.SimulationRequest(
        "Resnet-50", "trainbox", 64, engine="des", des_iterations=30
    )
    data = request.to_dict()
    assert data["v"] == api.REQUEST_SCHEMA
    assert data["kind"] == "simulate"
    clone = api.request_from_dict(data)
    assert clone == request
    assert clone.fingerprint() == request.fingerprint()


def test_request_rejects_mixed_arguments():
    request = api.SimulationRequest("Resnet-50", "trainbox", 16)
    with pytest.raises(ConfigError, match="not both"):
        api.simulate(request, "trainbox", 16)


def test_request_normalizes_resolved_objects_to_names():
    request = api.SimulationRequest(
        get_workload("Resnet-50"), ArchitectureConfig.trainbox(), 4
    )
    assert request.workload == "Resnet-50"
    assert request.arch == "trainbox"


def test_request_rejects_unregistered_arch():
    custom = dataclasses.replace(
        ArchitectureConfig.trainbox(), name="bespoke"
    )
    with pytest.raises(ConfigError, match="alias"):
        api.SimulationRequest("Resnet-50", custom, 4)


def test_request_rejects_unknown_fields_and_schema():
    data = api.SimulationRequest("Resnet-50", "trainbox", 4).to_dict()
    bad_schema = dict(data, v="repro-request/99")
    with pytest.raises(ConfigError, match="schema"):
        api.request_from_dict(bad_schema)
    bad_field = dict(data, warp_factor=9)
    with pytest.raises(ConfigError, match="unknown"):
        api.request_from_dict(bad_field)
    with pytest.raises(ConfigError, match="kind"):
        api.request_from_dict(dict(data, kind="teleport"))


def test_sweep_request_matches_legacy_sweep():
    request = api.SweepRequest(
        workloads=("Resnet-50",), archs=("baseline", "trainbox"),
        scales=(4, 16),
    )
    via_request = api.sweep(request)
    via_spec = api.sweep(request.resolve())
    assert [r.to_dict() for r in via_request.results] == [
        r.to_dict() for r in via_spec.results
    ]


def test_fault_request_matches_legacy_call():
    from repro.core.faults import FaultEvent, FaultSchedule
    from repro.core.server import build_server

    server = build_server(api.resolve_arch("trainbox"), 16)
    fpga = server.boxes[0].prep_ids[0]
    request = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16,
        events=((fpga, 10.0, 40.0),), horizon=60.0,
    )
    via_request = api.price_fault_schedule(request)
    via_legacy = api.price_fault_schedule(
        "Resnet-50", "trainbox", 16,
        FaultSchedule.of(FaultEvent(fpga, 10.0, 40.0)), 60.0,
    )
    assert via_request.to_dict() == via_legacy.to_dict()


def test_fault_request_spells_inf_recovery_as_none():
    import math

    request = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16,
        events=(("d0", 5.0, math.inf), ("d1", 1.0, 2.0)),
        horizon=10.0,
    )
    assert request.events == (("d0", 5.0, None), ("d1", 1.0, 2.0))
    schedule = request.resolve()
    assert schedule.events[0].recover_time == math.inf
    clone = api.request_from_dict(request.to_dict())
    assert clone == request
