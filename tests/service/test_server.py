"""The service broker and TCP server: coalescing, admission, quotas,
tiers, and the bit-identity guarantee.

Broker-level tests drive :meth:`SimulationService.handle` directly under
``asyncio.run`` — with the engine call monkeypatched slow where the test
needs deterministic overlap — and the end-to-end tests run a real
:class:`ServerThread` with real :class:`ServiceClient` sockets.  Tests
that need a slow engine use fault-schedule requests (priced whole by
``execute_request``) or DES requests (priced by ``evaluate_point``),
which dispatch alone instead of sharing a kernel pass.
"""

import asyncio
import json
import os
import time

import pytest

from repro import api
from repro.errors import ConfigError
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    TokenBucket,
    default_workers,
    execute_request,
)
from repro.service import batch as batch_mod
from repro.service import server as server_mod

REQ = api.SimulationRequest("Resnet-50", "trainbox", 64)
DES = api.SimulationRequest(
    "Resnet-50", "trainbox", 16, engine="des", des_iterations=12
)


def _fault(horizon=60.0):
    """A cheap fault-schedule request: one whole-request work item."""
    return api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16, events=(), horizon=horizon
    )


def _slow_execute(monkeypatch, seconds, calls=None):
    real = server_mod.execute_request

    def slow(request):
        if calls is not None:
            calls.append(request.fingerprint())
        time.sleep(seconds)
        return real(request)

    monkeypatch.setattr(server_mod, "execute_request", slow)


def _envelope(request, rid=1, tenant="t", **extra):
    return {"id": rid, "tenant": tenant, "request": request.to_dict(), **extra}


def _gather(service, envelopes):
    async def main():
        try:
            return await asyncio.gather(
                *(service.handle(e) for e in envelopes)
            )
        finally:
            service.close()

    return asyncio.run(main())


# -- token bucket -------------------------------------------------------------


def test_token_bucket_enforces_rate_and_burst():
    bucket = TokenBucket(rate=1000.0, burst=2.0)
    assert bucket.take() and bucket.take()
    # Burst exhausted; at 1000/s the next token is ~1ms away.
    if not bucket.take():
        assert bucket.retry_after() > 0
        time.sleep(0.01)
        assert bucket.take()
    infinite = TokenBucket(rate=float("inf"), burst=1.0)
    assert all(infinite.take() for _ in range(1000))
    assert infinite.retry_after() == 0.0


def test_token_bucket_refills_rate_times_elapsed_on_its_clock():
    now = [100.0]
    bucket = TokenBucket(rate=4.0, burst=10.0, clock=lambda: now[0])
    assert all(bucket.take() for _ in range(10))
    assert not bucket.take() and bucket.tokens == 0.0
    now[0] += 0.25  # 4 tokens/s x 0.25 s = 1 token
    assert bucket.take() and bucket.tokens == 0.0
    now[0] += 0.125
    assert not bucket.take() and bucket.tokens == 0.5
    assert bucket.retry_after() == 0.125
    now[0] += 2.375  # exactly back to the burst
    assert bucket.idle()
    now[0] += 60.0  # never past it
    assert bucket.take() and bucket.tokens == 9.0


def test_service_buckets_read_the_event_loop_clock():
    service = SimulationService(ServiceConfig(max_workers=1, quota_rate=5.0))

    async def main():
        try:
            req = api.SimulationRequest("Resnet-50", "trainbox", 4)
            response = await service.handle(_envelope(req, tenant="t"))
            assert response["status"] == "ok"
            return asyncio.get_running_loop().time
        finally:
            service.close()

    loop_time = asyncio.run(main())
    assert service._buckets["t"].clock == loop_time


@pytest.mark.parametrize(
    "usable,expected", [({0}, 2), (set(range(6)), 6), (set(range(64)), 32)]
)
def test_default_workers_counts_usable_cpus(monkeypatch, usable, expected):
    # A process pinned to fewer CPUs than the host has (taskset, a
    # cgroup cpuset) sizes its engine pool by its affinity mask.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
    assert default_workers() == expected


def test_default_workers_without_affinity_counts_host_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 2


# -- broker behaviour ---------------------------------------------------------


def test_ok_response_is_bit_identical_to_direct_call():
    # An analytical request is priced by a kernel dispatch, a DES one by
    # its own engine run: both bit-identical to the direct evaluation.
    service = SimulationService(ServiceConfig(max_workers=2))
    responses = _gather(service, [_envelope(REQ), _envelope(DES, rid=2)])
    for request, response in zip((REQ, DES), responses):
        assert response["status"] == "ok"
        assert response["meta"]["served_by"] == "computed"
        assert response["meta"]["fingerprint"] == request.fingerprint()
        assert json.dumps(response["payload"], sort_keys=True) == json.dumps(
            execute_request(request), sort_keys=True
        )


def test_duplicate_in_flight_requests_coalesce(monkeypatch):
    calls = []
    _slow_execute(monkeypatch, 0.2, calls)
    service = SimulationService(ServiceConfig(max_workers=4))
    responses = _gather(
        service, [_envelope(_fault(), rid=i) for i in range(5)]
    )
    assert [r["status"] for r in responses] == ["ok"] * 5
    served = sorted(r["meta"]["served_by"] for r in responses)
    assert served.count("computed") == 1
    assert served.count("coalesced") == 4
    assert len(calls) == 1  # the engine ran exactly once
    payloads = {json.dumps(r["payload"], sort_keys=True) for r in responses}
    assert len(payloads) == 1  # all five answers bit-identical


def test_sequential_duplicates_hit_the_memo():
    service = SimulationService(ServiceConfig(max_workers=2))

    async def main():
        try:
            first = await service.handle(_envelope(REQ, rid=1))
            second = await service.handle(_envelope(REQ, rid=2))
            return first, second
        finally:
            service.close()

    first, second = asyncio.run(main())
    assert first["meta"]["served_by"] == "computed"
    assert second["meta"]["served_by"] == "memo"
    assert second["payload"] == first["payload"]


def test_backpressure_rejects_beyond_max_pending(monkeypatch):
    _slow_execute(monkeypatch, 0.2)
    service = SimulationService(ServiceConfig(max_workers=1, max_pending=1))
    distinct = [_fault(horizon) for horizon in (30.0, 60.0, 90.0)]
    responses = _gather(
        service,
        [_envelope(r, rid=i) for i, r in enumerate(distinct)],
    )
    statuses = sorted(r["status"] for r in responses)
    assert statuses.count("ok") == 1
    assert statuses.count("rejected") == 2
    rejected = [r for r in responses if r["status"] == "rejected"]
    for r in rejected:
        assert r["error"]["code"] == "backpressure"
        assert r["meta"]["retry_after"] > 0


def test_backpressure_retry_hint_with_default_workers(monkeypatch):
    """Regression: the retry hint divides by the *resolved* worker
    count, so the default config (``max_workers=None``) must still
    produce the retryable backpressure envelope, not an internal
    TypeError."""
    _slow_execute(monkeypatch, 0.2)
    service = SimulationService(ServiceConfig(max_pending=1))
    distinct = [_fault(horizon) for horizon in (30.0, 60.0, 90.0)]
    responses = _gather(
        service,
        [_envelope(r, rid=i) for i, r in enumerate(distinct)],
    )
    rejected = [r for r in responses if r["status"] == "rejected"]
    assert rejected  # at least one request hit the pending limit
    for r in rejected:
        assert r["error"]["code"] == "backpressure"
        assert r["meta"]["retry_after"] > 0


def test_tenant_quota_rejects_over_budget():
    service = SimulationService(
        ServiceConfig(max_workers=2, quota_rate=0.001, quota_burst=2.0)
    )
    distinct = [
        api.SimulationRequest("Resnet-50", "trainbox", scale)
        for scale in (4, 8, 16)
    ]
    envelopes = [
        _envelope(r, rid=i, tenant="greedy")
        for i, r in enumerate(distinct)
    ]
    # A second tenant stays under its own bucket.
    envelopes.append(_envelope(REQ, rid=99, tenant="frugal"))

    async def main():
        try:
            return [await service.handle(e) for e in envelopes]
        finally:
            service.close()

    responses = asyncio.run(main())
    greedy = responses[:3]
    assert [r["status"] for r in greedy[:2]] == ["ok", "ok"]
    assert greedy[2]["status"] == "rejected"
    assert greedy[2]["error"]["code"] == "quota"
    assert greedy[2]["meta"]["retry_after"] > 0
    assert responses[3]["status"] == "ok"


def test_disk_and_shared_tiers(tmp_path):
    # The disk tier on a whole-request item (a fault schedule, keyed by
    # its fingerprint); point items are covered in
    # tests/service/test_batch.py.
    fault = _fault()
    config = ServiceConfig(max_workers=1, cache_dir=tmp_path / "cache")
    first, other = SimulationService(config), SimulationService(config)

    async def main():
        try:
            r1 = await first.handle(_envelope(fault))
            return r1, await other.handle(_envelope(fault))
        finally:
            first.close()
            other.close()

    r1, r3 = asyncio.run(main())
    assert r1["meta"]["served_by"] == "computed"

    # A restarted server with the same dir serves from disk.
    again = SimulationService(config)
    [r2] = _gather(again, [_envelope(fault)])
    assert r2["meta"]["served_by"] == "disk"
    assert r2["payload"] == r1["payload"]

    # A second live server sharing the dir serves from it, byte for byte.
    assert r3["meta"]["served_by"] == "disk"
    assert json.dumps(r3["payload"]) == json.dumps(r1["payload"])


def test_bad_requests_answer_error_not_crash():
    service = SimulationService(ServiceConfig(max_workers=1))
    envelopes = [
        "not a dict",
        {"id": 1, "op": "teleport"},
        {"id": 2, "request": {"v": "repro-request/99", "kind": "simulate"}},
        {"id": 3, "request": {"v": api.REQUEST_SCHEMA, "kind": "simulate",
                              "workload": "NoSuchNet", "arch": "trainbox",
                              "scale": 4}},
        {"id": 4},  # op defaults to request, but no request body
        # Schema-tagged but malformed field values: each must answer
        # bad-request, never escape handle() (regression: these used to
        # raise and leave the client hanging).
        {"id": 5, "request": {"v": api.REQUEST_SCHEMA, "kind": "simulate",
                              "workload": "Resnet-50",
                              "arch": "trainbox"}},  # missing scale
        {"id": 6, "request": {"v": api.REQUEST_SCHEMA, "kind": "simulate",
                              "workload": "Resnet-50", "arch": "trainbox",
                              "scale": "huge"}},  # string scale
        {"id": 7, "request": {"v": api.REQUEST_SCHEMA, "kind": "simulate",
                              "workload": "Resnet-50", "arch": "trainbox",
                              "scale": -4}},  # non-positive scale
        {"id": 8, "request": {"v": api.REQUEST_SCHEMA,
                              "kind": "price_fault_schedule",
                              "workload": "Resnet-50", "arch": "trainbox",
                              "scale": 4, "events": 7,
                              "horizon": "long"}},  # garbage events/horizon
    ]

    async def main():
        try:
            return [await service.handle(e) for e in envelopes]
        finally:
            service.close()

    responses = asyncio.run(main())
    assert all(r["status"] == "error" for r in responses)
    assert all(
        r["error"]["code"] in ("bad-request",) for r in responses
    )
    # Echoed ids where the envelope had one.
    assert responses[1]["id"] == 1
    assert responses[3]["id"] == 3


def test_owner_cancellation_keeps_serving_coalesced_waiter(monkeypatch):
    # The request that started a DES run is cancelled (its connection
    # died) while an identical request waits on the same work item: the
    # waiter's reference keeps the item running, and it answers ok.
    real = batch_mod.evaluate_point

    def slow(point):
        time.sleep(0.3)
        return real(point)

    monkeypatch.setattr(batch_mod, "evaluate_point", slow)
    service = SimulationService(ServiceConfig(max_workers=2))
    [(key, _point)] = batch_mod.work_items(DES)[1]

    async def main():
        try:
            owner = asyncio.create_task(service.handle(_envelope(DES, rid=1)))
            while key not in service._batch._inflight:
                await asyncio.sleep(0.005)
            waiter = asyncio.create_task(
                service.handle(_envelope(DES, rid=2))
            )
            while service._batch._inflight[key].waiters < 2:
                await asyncio.sleep(0.005)
            owner.cancel()
            try:
                await owner
            except asyncio.CancelledError:
                pass
            return await waiter
        finally:
            service.close()

    response = asyncio.run(main())
    assert response["status"] == "ok"
    assert response["meta"]["served_by"] == "coalesced"
    assert response["payload"] == execute_request(DES)
    counters = service.registry.to_manifest()["counters"]
    assert counters["service.cancelled"] == 1
    assert counters["service.batch_point_scalar"] == 1  # priced once
    assert counters.get("service.batch_point_abandoned", 0) == 0
    assert key not in service._batch._inflight  # table cleaned up


def test_tenant_bucket_table_is_bounded():
    service = SimulationService(
        ServiceConfig(max_workers=1, max_tenants=2)
    )

    async def main():
        try:
            for i in range(5):
                req = api.SimulationRequest("Resnet-50", "trainbox", 2 ** (i + 2))
                response = await service.handle(
                    _envelope(req, rid=i, tenant=f"tenant-{i}")
                )
                assert response["status"] == "ok"
            return await service.handle({"id": 99, "op": "stats"})
        finally:
            service.close()

    stats = asyncio.run(main())
    assert stats["payload"]["tenants"] <= 2
    counters = stats["payload"]["counters"]
    assert counters["service.tenants_evicted"] == 3


def test_compute_error_reports_and_recovers():
    service = SimulationService(ServiceConfig(max_workers=1))
    # Valid at construction, fails at pricing: unknown device id.
    doomed = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16,
        events=(("no_such_device", 1.0, 2.0),), horizon=10.0,
    )

    async def main():
        try:
            failed = await service.handle(_envelope(doomed, rid=1))
            healthy = await service.handle(_envelope(REQ, rid=2))
            return failed, healthy
        finally:
            service.close()

    failed, healthy = asyncio.run(main())
    assert failed["status"] == "error"
    assert failed["error"]["code"] == "compute"
    assert "no_such_device" in failed["error"]["message"]
    assert healthy["status"] == "ok"  # the broker is not wedged
    counters = service.registry.to_manifest()["counters"]
    assert counters["service.errors"] == 1


def test_admin_ops_and_counters():
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        try:
            pong = await service.handle({"id": 1, "op": "ping"})
            await service.handle(_envelope(REQ, rid=2))
            await service.handle(_envelope(REQ, rid=3))
            stats = await service.handle({"id": 4, "op": "stats"})
            return pong, stats
        finally:
            service.close()

    pong, stats = asyncio.run(main())
    assert pong["payload"]["kind"] == "pong"
    counters = stats["payload"]["counters"]
    assert counters["service.requests"] == 2
    assert counters["service.computed"] == 1
    assert counters["service.memo_hits"] == 1
    assert counters["service.batch_dispatches"] == 1
    # Engine-internal counters merged into the service manifest.
    assert counters.get("engine.analytical.runs", 0) >= 1
    # The batch counter scope is surfaced directly in stats too.
    assert stats["payload"]["batch"]["service.batch_points"] == 1


# -- end-to-end over real sockets ---------------------------------------------


def test_tcp_round_trip_all_request_kinds():
    from repro.core.server import build_server

    fpga = build_server(api.resolve_arch("trainbox"), 16).boxes[0].prep_ids[0]
    requests = [
        REQ,
        api.SweepRequest(
            workloads=("Resnet-50",), archs=("baseline",), scales=(4, 16),
        ),
        api.FaultScheduleRequest(
            "Resnet-50", "trainbox", 16,
            events=((fpga, 10.0, 40.0),), horizon=60.0,
        ),
    ]
    with ServerThread(ServiceConfig(max_workers=2)) as srv:
        host, port = srv.address
        with ServiceClient(host, port) as client:
            assert client.ping()["payload"]["kind"] == "pong"
            for request in requests:
                payload = client.call_strict(request)
                assert json.dumps(payload, sort_keys=True) == json.dumps(
                    execute_request(request), sort_keys=True
                )


def test_tcp_pipelined_duplicates_dedup():
    requests = [
        api.SimulationRequest("VGG-19", "baseline", s) for s in (4, 16)
    ] * 4
    with ServerThread(ServiceConfig(max_workers=2)) as srv:
        host, port = srv.address
        with ServiceClient(host, port) as client:
            responses = client.request_many(requests)
            assert all(r["status"] == "ok" for r in responses)
            served = [r["meta"]["served_by"] for r in responses]
            assert served.count("computed") == 2  # one per unique request
            assert all(
                s in ("computed", "coalesced", "memo") for s in served
            )
            stats = client.stats()
        counters = stats["counters"]
        assert counters["service.computed"] == 2
        assert (
            counters.get("service.coalesced", 0)
            + counters.get("service.memo_hits", 0)
            == 6
        )


def test_tcp_garbage_line_answers_error_and_connection_survives():
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        host, port = srv.address
        with ServiceClient(host, port) as client:
            client._sock.sendall(b"this is not json\n")
            response = client._recv()
            assert response["status"] == "error"
            assert response["error"]["code"] == "bad-frame"
            # The connection still works afterwards.
            assert client.ping()["payload"]["kind"] == "pong"


def test_server_thread_restartable():
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        first_port = srv.address[1]
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        with ServiceClient(*srv.address) as client:
            assert client.ping()["status"] == "ok"
    assert first_port  # both lifecycles completed cleanly
