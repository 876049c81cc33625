"""The work-item scheduler: request decomposition, work-conserving
dispatch, stitching, per-item error isolation, item-level cache tiers.

Tests drive :meth:`SimulationService.handle` directly under
``asyncio.run``; a test that needs lone items to queue holds the engine
thread busy on a gated fault schedule (the ``engine_gate`` fixture).
Counter assertions read the ``service.batch_*`` scope the scheduler
threads through the registry.
"""

import asyncio
import json
import threading

import pytest

from repro import api, obs
from repro.cache import ResultCache
from repro.core import analytical_batch
from repro.core.sweeps import cache_key, run_sweep
from repro.errors import SimulationError
from repro.service import (
    ServiceConfig,
    SimulationService,
    execute_request,
    work_items,
)
from repro.service import batch as batch_mod

REQ = api.SimulationRequest("Resnet-50", "trainbox", 64)
#: A fault schedule: one whole-request item on an engine thread of its
#: own, held there by the ``engine_gate`` fixture.
FAULT = api.FaultScheduleRequest(
    "Resnet-50", "trainbox", 16, events=(), horizon=60.0
)
#: A DES point: a lone item, priced on an engine thread of its own.
DES = api.SimulationRequest("Resnet-50", "trainbox", 16, engine="des")


def _envelope(request, rid=1, tenant="t", **extra):
    return {"id": rid, "tenant": tenant, "request": request.to_dict(), **extra}


def _gather(service, envelopes):
    async def main():
        try:
            return await asyncio.gather(
                *(service.handle(e) for e in envelopes)
            )
        finally:
            await service.aclose()

    return asyncio.run(main())


def _counters(service):
    return service.registry.to_manifest()["counters"]


async def _until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached"
        await asyncio.sleep(0.001)


async def _hold_engine(service):
    """Occupy a one-thread service with a gated fault schedule; returns
    its request task (answered once the gate opens)."""
    task = asyncio.ensure_future(service.handle(_envelope(FAULT, rid=0)))
    await _until(lambda: service._batch._dispatches)
    return task


def _kernel_dispatches(monkeypatch, then=None):
    """Record the size of each kernel dispatch; ``then(sizes)`` runs
    after each one is priced."""
    seen = []
    real = batch_mod.BatchScheduler._compute_batch

    def spy(self, items):
        result = real(self, items)
        if batch_mod._kernel_priced(items[0].work):
            seen.append(len(items))
            if then is not None:
                then(seen)
        return result

    monkeypatch.setattr(batch_mod.BatchScheduler, "_compute_batch", spy)
    return seen


def _des_job(service):
    """The engine-pool job of the DES point, once it is in flight."""
    item = service._batch._inflight.get(cache_key(DES.points()[0]))
    return item.job if item is not None else None


# -- work items ---------------------------------------------------------------


def test_work_items_split_points_from_whole_requests():
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 16),
        engine="des",
    )
    fault = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16, events=(), horizon=60.0
    )
    # Simulate and sweep requests of every engine are their points,
    # keyed by the sweep-point cache key; the fingerprint derived from
    # those keys is the request's own.  Profiling is not an input.
    flow = api.SimulationRequest("Resnet-50", "trainbox", 64, engine="flow")
    for request in (REQ, sweep, flow):
        fp, items = work_items(request)
        assert fp == request.fingerprint()
        assert [key for key, _point in items] == [
            cache_key(point) for point in request.points()
        ]
    # Only a fault schedule is priced whole.
    fp, items = work_items(fault)
    assert fp == fault.fingerprint()
    assert items == [(fp, fault)]


# -- work-conserving dispatch ------------------------------------------------


def test_idle_service_dispatches_a_lone_request_at_once(monkeypatch):
    # No timer: on an idle service a lone analytical request leaves on
    # the next loop iteration, in one dispatch.
    service = SimulationService(ServiceConfig(max_workers=2))
    timers = []

    async def main():
        loop = asyncio.get_running_loop()
        real = loop.call_later

        def spy(delay, callback, *args, **kwargs):
            timers.append((delay, callback))
            return real(delay, callback, *args, **kwargs)

        monkeypatch.setattr(loop, "call_later", spy)
        try:
            response = await service.handle(_envelope(REQ))
            return response, list(timers)
        finally:
            await service.aclose()

    response, armed = asyncio.run(main())
    assert armed == []
    assert response["status"] == "ok"
    assert response["meta"]["served_by"] == "computed"
    assert json.dumps(response["payload"], sort_keys=True) == json.dumps(
        execute_request(REQ), sort_keys=True
    )
    counters = _counters(service)
    assert counters["service.batch_dispatches"] == 1
    assert counters["service.batch_points"] == 1
    assert counters["service.batch_point_kernel"] == 1


@pytest.mark.parametrize("max_points", [256, 3])
def test_held_engine_thread_does_not_delay_analytical_points(
    engine_gate, max_points
):
    # Analytical points never wait for an engine thread: with the only
    # thread held, distinct requests queued in one loop iteration are
    # all answered before the gate opens, in one dispatch of N points,
    # or ceil(N / k) dispatches under max_batch_points=k.
    service = SimulationService(
        ServiceConfig(max_workers=1, max_batch_points=max_points)
    )
    requests = [
        api.SimulationRequest("Resnet-50", "trainbox", scale)
        for scale in (4, 8, 16, 32, 64, 128, 256)
    ]
    n = len(requests)

    async def main():
        try:
            holder = await _hold_engine(service)
            tasks = [
                asyncio.ensure_future(service.handle(_envelope(r, rid=i)))
                for i, r in enumerate(requests, 1)
            ]
            responses = await asyncio.wait_for(
                asyncio.gather(*tasks), timeout=30.0
            )
            held = not engine_gate.is_set() and not holder.done()
            engine_gate.set()
            return held, await holder, responses
        finally:
            await service.aclose()

    held, holder, responses = asyncio.run(main())
    assert held  # answered while the only engine thread was held
    assert holder["status"] == "ok"
    for request, response in zip(requests, responses):
        assert response["status"] == "ok"
        assert response["payload"] == execute_request(request)
    counters = _counters(service)
    assert counters["service.batch_dispatches"] == -(-n // max_points)
    assert counters["service.batch_points"] == n
    assert counters["service.batch_point_kernel"] == n
    assert counters["service.batch_point_queued"] == n + 1  # + the holder


def test_full_queue_leaves_while_every_thread_is_busy(
    engine_gate, monkeypatch
):
    # A queue at max_batch_points=2 leaves as one dispatch and is
    # answered while the only engine thread is held.
    service = SimulationService(
        ServiceConfig(max_workers=1, max_batch_points=2)
    )
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 16)
    )
    dispatches = _kernel_dispatches(monkeypatch)

    async def main():
        try:
            holder = await _hold_engine(service)
            response = await asyncio.wait_for(
                service.handle(_envelope(sweep)), timeout=30.0
            )
            held = not engine_gate.is_set()
            engine_gate.set()
            await holder
            return held, response
        finally:
            await service.aclose()

    held, response = asyncio.run(main())
    assert held
    assert dispatches == [2]
    assert response["status"] == "ok"
    assert response["payload"] == execute_request(sweep)
    counters = _counters(service)
    assert counters["service.batch_dispatches"] == 1
    assert counters["service.batch_points"] == 2


def test_oversize_request_splits_into_size_flushes(engine_gate, monkeypatch):
    # 8 points through a 3-point cap: two full dispatches and a 2-point
    # remainder, all while the only engine thread is held; every point
    # priced exactly once.
    service = SimulationService(
        ServiceConfig(max_workers=1, max_batch_points=3)
    )
    sweep = api.SweepRequest(
        workloads=("Resnet-50", "VGG-19"),
        archs=("trainbox", "baseline"),
        scales=(4, 16),
    )
    dispatches = _kernel_dispatches(monkeypatch)

    async def main():
        try:
            holder = await _hold_engine(service)
            response = await asyncio.wait_for(
                service.handle(_envelope(sweep)), timeout=30.0
            )
            held = not engine_gate.is_set()
            engine_gate.set()
            await holder
            return held, response
        finally:
            await service.aclose()

    held, response = asyncio.run(main())
    assert held
    assert dispatches == [3, 3, 2]
    assert response["status"] == "ok"
    assert response["payload"] == execute_request(sweep)
    counters = _counters(service)
    assert counters["service.batch_dispatches"] == 3
    assert counters["service.batch_points"] == 8
    assert counters["service.batch_point_queued"] == 8 + 1  # + the holder


def test_request_leaving_between_chunks_abandons_its_queued_points(
    monkeypatch,
):
    # One chunk is priced per loop iteration.  A request cancelled
    # (its connection died) while its first 3-point chunk is priced
    # steps before the next chunk, and releasing its last waiter
    # references takes the 5 points still queued off the queue.
    service = SimulationService(
        ServiceConfig(max_workers=1, max_batch_points=3)
    )
    sweep = api.SweepRequest(
        workloads=("Resnet-50", "VGG-19"),
        archs=("trainbox", "baseline"),
        scales=(4, 16),
    )
    tasks = []
    dispatches = _kernel_dispatches(
        monkeypatch, then=lambda seen: tasks[0].cancel()
    )

    async def main():
        try:
            tasks.append(asyncio.ensure_future(
                service.handle(_envelope(sweep))
            ))
            with pytest.raises(asyncio.CancelledError):
                await tasks[0]
            await asyncio.sleep(0.01)  # time enough for any later chunk
        finally:
            await service.aclose()

    asyncio.run(main())
    assert dispatches == [3]
    assert len(service._batch) == 0
    assert not service._batch._inflight
    counters = _counters(service)
    assert counters["service.cancelled"] == 1
    assert counters["service.batch_point_abandoned"] == 5
    assert counters["service.batch_point_kernel"] == 3


# -- stitching and the memo ---------------------------------------------------


def test_concurrent_requests_stitch_shared_points():
    # A simulate and a sweep overlapping on one point: the shared point
    # is queued once and stitched into the second request's wait set.
    service = SimulationService(ServiceConfig(max_workers=2))
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(64, 16)
    )
    sim_response, sweep_response = _gather(
        service, [_envelope(REQ, rid=1), _envelope(sweep, rid=2)]
    )
    assert sim_response["status"] == "ok"
    assert sweep_response["status"] == "ok"
    # The shared point's payload is literally the same result.
    assert (
        sweep_response["payload"]["results"][0]
        == sim_response["payload"]["result"]
    )
    counters = _counters(service)
    assert counters["service.batch_point_queued"] == 2  # 64 and 16
    assert counters["service.batch_point_stitched"] == 1
    assert counters["service.batch_dispatches"] == 1


def test_point_memo_serves_repeat_points_across_requests():
    service = SimulationService(ServiceConfig(max_workers=2))
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(64, 16)
    )

    async def main():
        try:
            first = await service.handle(_envelope(REQ, rid=1))
            second = await service.handle(_envelope(sweep, rid=2))
            return first, second
        finally:
            await service.aclose()

    first, second = asyncio.run(main())
    assert first["status"] == "ok" and second["status"] == "ok"
    assert second["payload"]["results"][0] == first["payload"]["result"]
    counters = _counters(service)
    # Scale 64 came from the point memo; only scale 16 hit the queue
    # in the second dispatch.
    assert counters["service.batch_point_hits"] == 1
    assert counters["service.batch_point_queued"] == 2
    assert counters["service.batch_dispatches"] == 2


def test_point_memo_can_be_disabled():
    service = SimulationService(ServiceConfig(max_workers=2, memo_entries=0))

    async def main():
        try:
            first = await service.handle(_envelope(REQ, rid=1, tenant="a"))
            second = await service.handle(_envelope(REQ, rid=2, tenant="b"))
            return first, second
        finally:
            await service.aclose()

    first, second = asyncio.run(main())
    # With no memo the identical request is priced again, same bits.
    assert first["meta"]["served_by"] == "computed"
    assert second["meta"]["served_by"] == "computed"
    assert second["payload"] == first["payload"]
    assert _counters(service).get("service.batch_point_hits", 0) == 0
    assert _counters(service)["service.batch_point_kernel"] == 2


# -- mixed kernel / lone traffic --------------------------------------------


def test_mixed_kinds_split_between_batched_and_compute_paths():
    # The analytical point queues for a kernel dispatch; the fault
    # schedule and the DES point dispatch at once, each on its own.
    from repro.core.server import build_server

    fpga = (
        build_server(api.resolve_arch("trainbox"), 16).boxes[0].prep_ids[0]
    )
    fault = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16,
        events=((fpga, 10.0, 40.0),), horizon=60.0,
    )
    des = api.SimulationRequest("Resnet-50", "trainbox", 16, engine="des")
    service = SimulationService(ServiceConfig(max_workers=2))
    responses = _gather(
        service,
        [
            _envelope(REQ, rid=1),
            _envelope(fault, rid=2),
            _envelope(des, rid=3),
        ],
    )
    assert [r["status"] for r in responses] == ["ok", "ok", "ok"]
    served = [r["meta"]["served_by"] for r in responses]
    assert served == ["computed", "computed", "computed"]
    for request, response in zip((REQ, fault, des), responses):
        assert response["payload"] == execute_request(request)
    counters = _counters(service)
    assert counters["service.computed"] == 3
    assert counters["service.batch_points"] == 1  # one kernel dispatch
    assert counters["service.batch_dispatches"] == 1
    assert counters["service.batch_point_kernel"] == 1
    assert counters["service.batch_point_scalar"] == 2


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _span_counts(response):
    return {
        name: count for name, count, _ms, _track in response["meta"]["spans"]
    }


def test_profiled_request_takes_the_point_route_with_spans():
    service = SimulationService(ServiceConfig(max_workers=2))

    async def main():
        try:
            profiled = await service.handle(_envelope(REQ, profile=True))
            plain = await service.handle(_envelope(REQ, rid=2))
            return profiled, plain
        finally:
            await service.aclose()

    profiled, plain = asyncio.run(main())
    assert profiled["meta"]["served_by"] == "computed"
    spans = _span_counts(profiled)  # the traced kernel dispatch's summary
    assert spans["service.batch_dispatch"] == 1
    assert spans["iteration"] == 1
    assert _canonical(profiled["payload"]) == _canonical(execute_request(REQ))
    # The profiled request priced the point under its cache key, so the
    # plain request is a memo hit.
    assert plain["meta"]["served_by"] == "memo"
    assert "spans" not in plain["meta"]
    assert _canonical(plain["payload"]) == _canonical(profiled["payload"])
    counters = _counters(service)
    assert counters["service.batch_point_kernel"] == 1
    assert counters.get("service.batch_point_scalar", 0) == 0
    assert counters["service.memo_hits"] == 1


@pytest.mark.parametrize("engine", ["analytical", "des", "flow"])
def test_profiled_payload_is_the_unprofiled_payload(engine):
    simulate = api.SimulationRequest("Resnet-50", "trainbox", 16, engine=engine)
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 8),
        engine=engine,
    )
    for request in (simulate, sweep):
        responses = {}
        for profile in (True, False):
            service = SimulationService(ServiceConfig(max_workers=2))
            [responses[profile]] = _gather(
                service, [_envelope(request, profile=profile)]
            )
            assert responses[profile]["meta"]["served_by"] == "computed"
        want = _canonical(execute_request(request))
        assert _canonical(responses[True]["payload"]) == want
        assert _canonical(responses[False]["payload"]) == want
        assert responses[True]["meta"]["spans"]
        assert "spans" not in responses[False]["meta"]


def test_profiled_spans_count_each_started_dispatch_once():
    analytical = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 8)
    )
    des = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 8),
        engine="des",
    )
    service = SimulationService(ServiceConfig(max_workers=2))
    kernel, lone, plain, coalesced = _gather(
        service,
        [
            _envelope(analytical, rid=1, profile=True),
            _envelope(des, rid=2, profile=True),
            _envelope(REQ, rid=3),
            # Attaches to rid 3's in-flight item: it started nothing.
            _envelope(REQ, rid=4, profile=True),
        ],
    )
    # Both analytical points share one kernel dispatch (with REQ's
    # point); each DES point is its own dispatch.
    assert _span_counts(kernel)["service.batch_dispatch"] == 1
    assert _span_counts(kernel)["iteration"] == 3
    assert _span_counts(lone)["service.batch_dispatch"] == 2
    assert _span_counts(lone)["iteration"] == 2 * 60  # one per DES iteration
    assert "spans" not in plain["meta"]
    assert coalesced["meta"]["served_by"] == "coalesced"
    assert "spans" not in coalesced["meta"]
    assert _counters(service)["service.batch_dispatches"] == 1


def test_profiled_spans_rank_wall_time_before_model_time():
    # A DES run's iterations are simulated time on a model track; they
    # must not outrank (or merge with) the dispatch's real wall time.
    des = api.SimulationRequest("Resnet-50", "trainbox", 16, engine="des")
    service = SimulationService(ServiceConfig(max_workers=2))
    [response] = _gather(service, [_envelope(des, profile=True)])
    rows = response["meta"]["spans"]
    where = {(name, track): i for i, (name, _n, _ms, track) in enumerate(rows)}
    [iteration_track] = [t for name, t in where if name == "iteration"]
    assert iteration_track != "wall"
    assert (
        where[("service.batch_dispatch", "wall")]
        < where[("iteration", iteration_track)]
    )
    tracks = [track for _name, _n, _ms, track in rows]
    assert tracks == sorted(tracks, key=lambda track: track != "wall")


def test_dispatches_never_touch_the_callers_instruments():
    # A service driven under the caller's own session on the loop
    # thread: no dispatch writes a span or a counter into it, and a
    # profiled request still gets its own dispatch's spans.
    tracer, metrics = obs.Tracer(), obs.MetricsRegistry()
    service = SimulationService(ServiceConfig(max_workers=2))
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 8)
    )

    async def main():
        with obs.session(tracer=tracer, metrics=metrics):
            try:
                plain = await service.handle(_envelope(REQ, rid=1))
                profiled = await service.handle(
                    _envelope(sweep, rid=2, profile=True)
                )
                return plain, profiled
            finally:
                await service.aclose()

    plain, profiled = asyncio.run(main())
    assert plain["meta"]["served_by"] == "computed"
    assert profiled["meta"]["served_by"] == "computed"
    assert tracer.summarize() == []
    assert metrics.counters == {}
    assert metrics.histograms == {}
    spans = _span_counts(profiled)
    assert spans["service.batch_dispatch"] == 1
    assert spans["iteration"] == 2


def test_only_lone_items_reach_the_engine_pool(monkeypatch):
    # A pipelined all-analytical load submits nothing to the engine
    # pool; each DES point and each fault schedule is submitted exactly
    # once, however many requests share it.
    service = SimulationService(ServiceConfig(max_workers=2))
    executor = service._batch._executor
    submitted = []
    real = executor.submit

    def spy(fn, items, *args):
        submitted.extend(item.key for item in items)
        return real(fn, items, *args)

    monkeypatch.setattr(executor, "submit", spy)
    analytical = [
        api.SimulationRequest(workload, "trainbox", scale)
        for workload in ("Resnet-50", "VGG-19")
        for scale in (4, 16, 64)
    ] + [
        api.SweepRequest(
            workloads=("Resnet-50",), archs=("trainbox", "baseline"),
            scales=(4, 16),
        )
    ]
    des_sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 16),
        engine="des",
    )
    lone = [des_sweep, DES, FAULT, FAULT]

    async def main():
        try:
            first = await asyncio.gather(*(
                service.handle(_envelope(r, rid=i))
                for i, r in enumerate(analytical)
            ))
            kernel_only = list(submitted)
            second = await asyncio.gather(*(
                service.handle(_envelope(r, rid=i))
                for i, r in enumerate(lone)
            ))
            return first + second, kernel_only
        finally:
            await service.aclose()

    responses, kernel_only = asyncio.run(main())
    assert [r["status"] for r in responses] == ["ok"] * len(responses)
    assert kernel_only == []
    assert sorted(submitted) == sorted(
        [cache_key(point) for point in des_sweep.points()]
        + [FAULT.fingerprint()]
    )
    counters = _counters(service)
    assert counters["service.batch_point_scalar"] == 3
    # 6 simulate points, plus the sweep's 2 baseline ones.
    assert counters["service.batch_point_kernel"] == 8


# -- per-point error isolation ------------------------------------------------


POISON_SCALE = 16


def _poisoning(real):
    def evaluate_points(points):
        results, errors = real(points)
        results, errors = list(results), list(errors)
        for i, point in enumerate(points):
            if point.scale == POISON_SCALE:
                results[i] = None
                errors[i] = SimulationError("poisoned point")
        return results, errors

    return evaluate_points


def test_poisoned_point_fails_only_its_requests(monkeypatch):
    monkeypatch.setattr(
        analytical_batch,
        "evaluate_points",
        _poisoning(analytical_batch.evaluate_points),
    )
    service = SimulationService(ServiceConfig(max_workers=2))
    poisoned = api.SimulationRequest("Resnet-50", "trainbox", POISON_SCALE)
    sweep = api.SweepRequest(  # contains the poisoned point
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 16)
    )
    healthy = api.SimulationRequest("VGG-19", "baseline", 4)
    bad1, bad2, good = _gather(
        service,
        [
            _envelope(poisoned, rid=1),
            _envelope(sweep, rid=2),
            _envelope(healthy, rid=3),
        ],
    )
    # SimulationError is not a ConfigError, so it surfaces through the
    # engine-bug clause — exactly as a scalar-priced item maps it.
    for bad in (bad1, bad2):
        assert bad["status"] == "error"
        assert bad["error"]["code"] == "internal"
        assert "poisoned point" in bad["error"]["message"]
    assert good["status"] == "ok"
    assert good["payload"] == execute_request(healthy)
    counters = _counters(service)
    assert counters["service.batch_point_errors"] == 1  # one bad point
    assert counters["service.errors"] == 2  # two requests contained it
    assert counters["service.batch_dispatches"] == 1


def test_error_envelope_matches_unbatched_path(monkeypatch):
    # A lone DES item whose evaluate_point raises the same exception
    # must produce the kernel path's error code and message.
    poisoned = api.SimulationRequest("Resnet-50", "trainbox", POISON_SCALE)
    monkeypatch.setattr(
        analytical_batch,
        "evaluate_points",
        _poisoning(analytical_batch.evaluate_points),
    )
    via_kernel = SimulationService(ServiceConfig(max_workers=2))
    [kernel] = _gather(via_kernel, [_envelope(poisoned)])

    def failing_point(point):
        raise SimulationError("poisoned point")

    monkeypatch.setattr(batch_mod, "evaluate_point", failing_point)
    alone = SimulationService(ServiceConfig(max_workers=2))
    des = api.SimulationRequest(
        "Resnet-50", "trainbox", POISON_SCALE, engine="des"
    )
    [scalar] = _gather(alone, [_envelope(des)])
    counters = _counters(alone)
    assert counters["service.batch_point_errors"] == 1
    assert counters.get("service.batch_dispatches", 0) == 0  # no kernel
    assert kernel["status"] == scalar["status"] == "error"
    assert kernel["error"] == scalar["error"]


# -- item-level cache tiers ---------------------------------------------------


def test_points_served_from_disk_after_restart(tmp_path):
    config = ServiceConfig(
        max_workers=2, cache_dir=tmp_path / "cache"
    )
    first = SimulationService(config)
    [r1] = _gather(first, [_envelope(REQ)])
    assert r1["meta"]["served_by"] == "computed"
    assert _counters(first)["service.batch_point_kernel"] == 1

    # A restarted service (fresh memos) finds the *point* on disk:
    # no kernel work at all.
    second = SimulationService(config)
    [r2] = _gather(second, [_envelope(REQ)])
    assert r2["status"] == "ok"
    assert r2["meta"]["served_by"] == "disk"
    assert r2["payload"] == r1["payload"]
    counters = _counters(second)
    assert counters["service.batch_point_disk"] == 1
    assert counters.get("service.batch_point_kernel", 0) == 0


def test_two_services_share_one_cache_dir(tmp_path):
    # Two live services on one cache_dir: the point the first one priced
    # is served from disk by the second, byte for byte.
    config = ServiceConfig(max_workers=2, cache_dir=tmp_path / "cache")
    first, second = SimulationService(config), SimulationService(config)

    async def main():
        try:
            r1 = await first.handle(_envelope(REQ))
            return r1, await second.handle(_envelope(REQ))
        finally:
            await first.aclose()
            await second.aclose()

    r1, r2 = asyncio.run(main())
    assert r1["meta"]["served_by"] == "computed"
    assert r2["status"] == "ok"
    assert r2["meta"]["served_by"] == "disk"
    assert json.dumps(r2["payload"]) == json.dumps(r1["payload"])
    counters = _counters(second)
    assert counters["service.batch_point_disk"] == 1
    assert counters.get("service.batch_point_kernel", 0) == 0


def test_sweep_cache_interop(tmp_path):
    # run_sweep and the batch scheduler share the sweep-point key
    # domain: a sweep-warmed cache serves the service without any
    # kernel work, and vice versa.
    cache = ResultCache(tmp_path / "cache")
    spec = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(64,)
    ).resolve()
    outcome = run_sweep(spec, cache=cache)

    service = SimulationService(
        ServiceConfig(
            max_workers=2, cache_dir=tmp_path / "cache"
        )
    )
    [response] = _gather(service, [_envelope(REQ)])
    assert response["status"] == "ok"
    assert (
        response["payload"]["result"] == outcome.results[0].to_dict()
    )
    counters = _counters(service)
    assert counters["service.batch_point_disk"] == 1
    assert counters.get("service.batch_point_kernel", 0) == 0
    # The key the service used is literally the sweep's cache key.
    assert cache.get(cache_key(spec.points()[0])) is not None


def test_des_simulate_served_from_sweep_point_entry(tmp_path):
    # A DES simulate is its one point: the entry api.sweep(cache=...)
    # wrote for that point serves it, with no engine run at all.
    des = api.SimulationRequest(
        "Resnet-50", "trainbox", 16, engine="des", des_iterations=12
    )
    sweep = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(16,),
        engine="des", des_iterations=12,
    )
    api.sweep(sweep, cache=tmp_path / "cache")

    service = SimulationService(
        ServiceConfig(max_workers=2, cache_dir=tmp_path / "cache")
    )
    [response] = _gather(service, [_envelope(des)])
    assert response["status"] == "ok"
    assert response["meta"]["served_by"] == "disk"
    assert response["payload"] == execute_request(des)
    counters = _counters(service)
    assert counters["service.batch_point_disk"] == 1
    assert counters.get("service.batch_point_scalar", 0) == 0


# -- shutdown -----------------------------------------------------------------


def test_aclose_drains_queued_points(engine_gate):
    # Graceful shutdown *completes* queued work: the DES point queued
    # behind the held engine thread is not failed by the drain; it runs
    # when the thread frees and the request is answered ok.
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        holder = await _hold_engine(service)
        task = asyncio.create_task(service.handle(_envelope(DES)))
        await _until(lambda: _des_job(service) is not None)
        closing = asyncio.create_task(service.aclose())
        await asyncio.sleep(0.01)
        job = _des_job(service)
        still_queued = not (job.running() or job.done() or closing.done())
        engine_gate.set()
        report = await closing
        await holder
        return await asyncio.wait_for(task, timeout=5.0), report, still_queued

    response, report, still_queued = asyncio.run(main())
    assert still_queued
    assert response["status"] == "ok"
    assert response["meta"]["served_by"] == "computed"
    assert response["payload"] == execute_request(DES)
    assert report["drained"] is True
    assert report["stranded"] == 0


def _close_with_a_point_queued(service, engine_gate):
    """Queue a DES point behind the held engine thread and close
    synchronously; a timer thread opens the gate while ``close`` waits
    for the held dispatch.  Returns ``(DES's response, the holder's
    response)``."""

    async def main():
        holder = await _hold_engine(service)
        task = asyncio.create_task(service.handle(_envelope(DES)))
        await _until(lambda: _des_job(service) is not None)
        opener = threading.Timer(0.05, engine_gate.set)
        opener.start()
        service.close()
        opener.join()
        return (
            await asyncio.wait_for(task, timeout=5.0),
            await asyncio.wait_for(holder, timeout=5.0),
        )

    return asyncio.run(main())


def test_close_fails_queued_points_fast(engine_gate):
    # The abrupt (synchronous) path fails a point still waiting for an
    # engine thread instead of running it or hanging its waiters.
    service = SimulationService(ServiceConfig(max_workers=1))
    response, _holder = _close_with_a_point_queued(service, engine_gate)
    assert response["status"] == "error"
    assert response["error"]["code"] == "compute"
    assert "shutting down" in response["error"]["message"]


def test_dispatch_finishing_after_close_sends_nothing(engine_gate):
    # The held dispatch completes after close() and scatters; the point
    # queued behind it never reaches the stopped pool.
    service = SimulationService(ServiceConfig(max_workers=1))
    _response, holder = _close_with_a_point_queued(service, engine_gate)
    assert holder["status"] == "ok"
    assert len(service._batch) == 0
    assert not service._batch._dispatches
    assert not service._batch._inflight
    counters = _counters(service)
    assert counters["service.batch_point_scalar"] == 1  # the holder only
    assert counters.get("service.batch_dispatches", 0) == 0
    assert counters.get("service.batch_point_kernel", 0) == 0
