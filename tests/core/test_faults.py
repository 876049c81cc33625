"""Tests for fault injection and degraded operation."""

import pytest

from repro.core.analytical import TrainingScenario, simulate
from repro.core.config import ArchitectureConfig
from repro.core.faults import FaultSet, drain_box, inject_faults
from repro.core.server import build_server
from repro.errors import ConfigError
from repro.workloads.registry import get_workload

RESNET = get_workload("Resnet-50")
TF_SR = get_workload("Transformer-SR")


def _healthy(n=32):
    return build_server(ArchitectureConfig.trainbox(), n)


def _simulate_on(server, workload=RESNET):
    scenario = TrainingScenario(
        workload, server.arch, server.n_accelerators, hw=server.hw
    )
    return simulate(scenario, server=server)


def test_ssd_failure_degrades_box_bandwidth():
    server = _healthy()
    healthy = _simulate_on(server)
    victim = server.boxes[0].ssd_ids[0]
    degraded_server = inject_faults(server, FaultSet.of(victim))
    degraded = _simulate_on(degraded_server)
    # The surviving drive carries the whole box's reads; system
    # throughput may drop but never below the one-drive bound.
    assert degraded.throughput <= healthy.throughput
    assert degraded.throughput > 0.4 * healthy.throughput


def test_fpga_failure_halves_box_prep():
    server = _healthy()
    healthy = _simulate_on(server, TF_SR)
    victim = server.boxes[0].prep_ids[0]
    degraded = _simulate_on(inject_faults(server, FaultSet.of(victim)), TF_SR)
    assert degraded.throughput <= healthy.throughput
    assert degraded.throughput > 0.5 * healthy.throughput


def test_accelerator_failure_shrinks_the_job():
    server = _healthy()
    victim = server.boxes[0].acc_ids[0]
    degraded_server = inject_faults(server, FaultSet.of(victim))
    assert degraded_server.n_accelerators == server.n_accelerators - 1
    result = _simulate_on(degraded_server)
    assert result.throughput > 0


def test_multiple_faults_compose():
    server = _healthy()
    faults = FaultSet.of(
        server.boxes[0].ssd_ids[0],
        server.boxes[1].prep_ids[0],
        server.boxes[2].acc_ids[3],
    )
    degraded_server = inject_faults(server, faults)
    assert degraded_server.n_accelerators == server.n_accelerators - 1
    assert len(degraded_server.ssd_ids) == len(server.ssd_ids) - 1
    assert _simulate_on(degraded_server).throughput > 0


def test_total_box_ssd_loss_rejected():
    server = _healthy()
    box = server.boxes[0]
    with pytest.raises(ConfigError):
        inject_faults(server, FaultSet(frozenset(box.ssd_ids)))


def test_total_box_fpga_loss_rejected():
    server = _healthy()
    box = server.boxes[0]
    with pytest.raises(ConfigError):
        inject_faults(server, FaultSet(frozenset(box.prep_ids)))


def test_unknown_device_rejected():
    server = _healthy()
    with pytest.raises(ConfigError):
        inject_faults(server, FaultSet.of("flux_capacitor"))


def test_original_server_untouched():
    server = _healthy()
    before = list(server.boxes[0].ssd_ids)
    inject_faults(server, FaultSet.of(before[0]))
    assert server.boxes[0].ssd_ids == before


def test_drain_box():
    server = _healthy()
    drained = drain_box(server, server.boxes[0].box_id)
    assert drained.n_accelerators == server.n_accelerators - 8
    assert _simulate_on(drained).throughput > 0
    with pytest.raises(ConfigError):
        drain_box(server, "nonexistent")


def test_drain_last_box_rejected():
    server = build_server(ArchitectureConfig.trainbox(), 8)
    acc_boxes = [b for b in server.boxes if b.acc_ids]
    with pytest.raises(ConfigError):
        drain_box(server, acc_boxes[0].box_id)


# -- time-varying fault schedules -------------------------------------------


def test_fault_event_validation():
    from repro.core.faults import FaultEvent

    e = FaultEvent("d0", 5.0, 10.0)
    assert not e.down_at(4.9) and e.down_at(5.0)
    assert e.down_at(9.9) and not e.down_at(10.0)
    assert FaultEvent("d0", 0.0).down_at(1e12)  # never recovers
    with pytest.raises(ConfigError):
        FaultEvent("d0", -1.0)
    with pytest.raises(ConfigError):
        FaultEvent("d0", 5.0, 5.0)


def test_schedule_windows_partition_the_horizon():
    from repro.core.faults import FaultEvent, FaultSchedule

    sched = FaultSchedule.of(
        FaultEvent("a", 10.0, 40.0),
        FaultEvent("b", 20.0, 30.0),
    )
    windows = sorted(sched.windows(60.0))
    assert [(t0, t1) for t0, t1, _ in windows] == [
        (0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0), (40.0, 60.0)
    ]
    assert [sorted(f.device_ids) for _, _, f in windows] == [
        [], ["a"], ["a", "b"], ["a"], []
    ]
    # Events past the horizon contribute no cuts.
    late = FaultSchedule.of(FaultEvent("a", 100.0))
    assert late.windows(60.0) == [(0.0, 60.0, late.active_at(0.0))]
    with pytest.raises(ConfigError):
        sched.windows(0.0)


def test_schedule_priced_as_piecewise_timeline():
    from repro.core.faults import FaultEvent, FaultSchedule, price_schedule

    server = _healthy()
    fpga = server.boxes[0].prep_ids[0]
    ssd = server.boxes[1].ssd_ids[0]
    sched = FaultSchedule.of(
        FaultEvent(fpga, 10.0, 40.0),
        FaultEvent(ssd, 20.0, 30.0),
    )
    timeline = price_schedule(server, sched, 60.0, _simulate_on)
    segments = timeline.segments
    assert len(segments) == 5
    healthy = segments[0].throughput
    # FPGA loss dips but the surviving FPGA carries the box; SSD loss
    # composes; recovery restores the healthy rate exactly.
    assert all(0 < s.throughput <= healthy for s in segments)
    assert segments[1].throughput < healthy
    assert segments[-1].throughput == healthy
    assert segments[-1].failed == ()
    assert timeline.min_throughput > 0.4 * healthy
    assert timeline.horizon == 60.0
    assert timeline.throughput_at(15.0) == segments[1].throughput
    with pytest.raises(ConfigError):
        timeline.throughput_at(60.0)
    # The throughput integral is consistent with the segments.
    assert timeline.total_samples == pytest.approx(
        sum(s.throughput * s.duration for s in segments)
    )


def test_schedule_pricing_caches_repeated_fault_sets():
    from repro.core.faults import FaultEvent, FaultSchedule, price_schedule

    server = _healthy()
    fpga = server.boxes[0].prep_ids[0]
    # The same device flaps three times: 4 healthy + 3 degraded windows,
    # but only two distinct fault sets to price.
    sched = FaultSchedule.of(
        FaultEvent(fpga, 10.0, 20.0),
        FaultEvent(fpga, 30.0, 40.0),
        FaultEvent(fpga, 50.0, 60.0),
    )
    calls = []

    def runner(srv):
        calls.append(srv)
        return _simulate_on(srv)

    timeline = price_schedule(server, sched, 70.0, runner)
    assert len(timeline.segments) == 7
    assert len(calls) == 2
    degraded = [s for s in timeline.segments if s.failed]
    assert len(degraded) == 3
    assert len({s.throughput for s in degraded}) == 1


def test_schedule_that_strips_a_box_rejected_like_static_path():
    from repro.core.faults import FaultEvent, FaultSchedule, price_schedule

    server = _healthy()
    box = server.boxes[0]
    sched = FaultSchedule.of(
        *(FaultEvent(s, 10.0) for s in box.ssd_ids)
    )
    with pytest.raises(ConfigError):
        price_schedule(server, sched, 60.0, _simulate_on)


def test_des_and_flow_schedule_engines():
    from repro import api
    from repro.core.faults import FaultEvent, FaultSchedule

    fpga = _healthy().boxes[0].prep_ids[0]
    sched = FaultSchedule.of(FaultEvent(fpga, 10.0, 30.0))
    for engine in ("des", "flow"):
        timeline = api.price_fault_schedule(
            "Resnet-50", "trainbox", 32, sched, 50.0, engine=engine
        )
        assert len(timeline.segments) == 3
        healthy = timeline.segments[0].throughput
        assert timeline.segments[1].throughput < healthy
        assert timeline.segments[1].throughput > 0
        assert timeline.segments[2].throughput == healthy


def test_api_price_fault_schedule_facade():
    from repro import api
    from repro.core.faults import FaultEvent, FaultSchedule

    sched = FaultSchedule.of(FaultEvent("tbox0_fpga0", 10.0, 30.0))
    timeline = api.price_fault_schedule(
        "Resnet-50", "trainbox", 32, sched, 50.0
    )
    assert len(timeline.segments) == 3
    assert timeline.segments[0].throughput == timeline.segments[2].throughput
    assert timeline.mean_throughput < timeline.max_throughput
    with pytest.raises(ConfigError):
        api.price_fault_schedule(
            "Resnet-50", "trainbox", 32, sched, 50.0, engine="warp"
        )
