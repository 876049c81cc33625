"""The resilience layer: deadlines, disconnect cancellation, graceful
drain, and client retry.

Broker-level tests drive :meth:`SimulationService.handle` under
``asyncio.run`` with the engine monkeypatched slow where a test needs
deterministic overlap — on fault-schedule requests, which are priced
whole by ``execute_request`` and dispatch at once; the socket-level tests
run a real :class:`ServerThread` and slam connections mid-request.
"""

import asyncio
import socket
import time

import pytest

from repro import api
from repro.core.sweeps import cache_key
from repro.errors import ConfigError
from repro.service import (
    RetryPolicy,
    ConnectionLost,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    SimulationServer,
    SimulationService,
    protocol,
)
from repro.service import server as server_mod

REQ = api.SimulationRequest("Resnet-50", "trainbox", 64)
#: A cheap fault-schedule request: one whole-request work item.
FAULT = api.FaultScheduleRequest(
    "Resnet-50", "trainbox", 16, events=(), horizon=60.0
)
#: A DES point: a lone item that queues for an engine thread.
DES = api.SimulationRequest("Resnet-50", "trainbox", 16, engine="des")


def _envelope(request, rid=1, tenant="t", **extra):
    return {"id": rid, "tenant": tenant, "request": request.to_dict(), **extra}


def _counters(service):
    return service.registry.to_manifest()["counters"]


def _slow_engine(monkeypatch, seconds, ran=None):
    real = server_mod.execute_request

    def slow(request):
        if ran is not None:
            ran.append(request.fingerprint())
        time.sleep(seconds)
        return real(request)

    monkeypatch.setattr(server_mod, "execute_request", slow)


def _inflight(service, request):
    """Whether the request's (single) work item is queued or running."""
    if isinstance(request, api.SimulationRequest):
        return cache_key(request.points()[0]) in service._batch._inflight
    return request.fingerprint() in service._batch._inflight


# -- deadline_ms parsing ------------------------------------------------------


def test_parse_deadline_ms():
    assert protocol.parse_deadline_ms(None) is None
    assert protocol.parse_deadline_ms(250) == 250.0
    assert protocol.parse_deadline_ms(0.5) == 0.5
    for bad in (True, 0, -5, float("inf"), float("nan"), "soon"):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_deadline_ms(bad)


def test_malformed_deadline_is_a_bad_request():
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        try:
            return await service.handle(
                _envelope(REQ, deadline_ms="never")
            )
        finally:
            service.close()

    response = asyncio.run(main())
    assert response["status"] == "error"
    assert response["error"]["code"] == "bad-request"
    assert "deadline_ms" in response["error"]["message"]


# -- deadline enforcement -----------------------------------------------------


def test_owner_deadline_rejects_at_scatter_time(monkeypatch):
    # The engine outlives the budget: the work still completes (and is
    # memoized for everyone else), but THIS request honestly answers
    # deadline_exceeded instead of a late ok.
    _slow_engine(monkeypatch, 0.2)
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        try:
            late = await service.handle(
                _envelope(FAULT, rid=1, deadline_ms=50)
            )
            # Waiting out the engine run: the item was abandoned only if
            # no engine thread had picked it up.
            while _inflight(service, FAULT):
                await asyncio.sleep(0.005)
            # The payload was memoized despite the rejection: a resend
            # with a fresh budget is served instantly from the memo.
            resend = await service.handle(
                _envelope(FAULT, rid=2, deadline_ms=50)
            )
            return late, resend
        finally:
            service.close()

    late, resend = asyncio.run(main())
    assert late["status"] == "rejected"
    assert late["error"]["code"] == "deadline_exceeded"
    assert late["meta"]["retry_after"] == 0.0
    assert resend["status"] == "ok"
    assert resend["meta"]["served_by"] == "memo"
    counters = _counters(service)
    assert counters["service.deadline_exceeded"] == 1
    # The accounting partition: both requests landed in exactly one
    # outcome bucket (deadline_exceeded + memo_hits == requests).
    assert counters["service.memo_hits"] == 1
    assert counters["service.requests"] == 2


def test_waiter_deadline_expires_without_killing_the_owner(monkeypatch):
    _slow_engine(monkeypatch, 0.3)
    service = SimulationService(ServiceConfig(max_workers=2))

    async def main():
        try:
            owner = asyncio.create_task(
                service.handle(_envelope(FAULT, rid=1))
            )
            while not _inflight(service, FAULT):
                await asyncio.sleep(0.005)
            waiter = await service.handle(
                _envelope(FAULT, rid=2, deadline_ms=50)
            )
            return waiter, await owner
        finally:
            service.close()

    waiter, owner = asyncio.run(main())
    assert waiter["status"] == "rejected"
    assert waiter["error"]["code"] == "deadline_exceeded"
    assert "scattered" in waiter["error"]["message"]
    # The owner (no deadline) is untouched by the waiter's budget.
    assert owner["status"] == "ok"
    assert owner["meta"]["served_by"] == "computed"


def test_deadline_expired_in_executor_queue_skips_the_engine(monkeypatch):
    # One worker, hogged by a slow request: the queued request's budget
    # burns up before an engine thread picks it up, its last waiter
    # leaves, and the engine is never spent on it.
    ran = []
    _slow_engine(monkeypatch, 0.3, ran)
    service = SimulationService(ServiceConfig(max_workers=1))
    other = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16, events=(), horizon=90.0
    )

    async def main():
        try:
            hog = asyncio.create_task(service.handle(_envelope(FAULT, rid=1)))
            while not ran:
                await asyncio.sleep(0.005)
            doomed = await service.handle(
                _envelope(other, rid=2, deadline_ms=50)
            )
            return doomed, await hog
        finally:
            service.close()

    doomed, hog = asyncio.run(main())
    assert hog["status"] == "ok"
    assert doomed["status"] == "rejected"
    assert doomed["error"]["code"] == "deadline_exceeded"
    assert ran == [FAULT.fingerprint()]  # the doomed request never ran
    assert _counters(service)["service.batch_point_abandoned"] == 1


def test_batch_deadline_abandons_sole_waiter_point(engine_gate):
    # The only engine thread is held and the budget is tiny: the
    # deadline fires while the DES point is still queued behind it, and
    # releasing the last waiter reference abandons the point before it
    # ever reaches an engine.
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        try:
            holder = asyncio.create_task(
                service.handle(_envelope(FAULT, rid=0))
            )
            while not _inflight(service, FAULT):
                await asyncio.sleep(0.001)
            return await service.handle(_envelope(DES, deadline_ms=30))
        finally:
            engine_gate.set()
            await holder
            service.close()

    response = asyncio.run(main())
    assert response["status"] == "rejected"
    assert response["error"]["code"] == "deadline_exceeded"
    counters = _counters(service)
    assert counters["service.batch_point_abandoned"] == 1
    assert counters["service.batch_point_scalar"] == 1  # the holder only


# -- a dead kernel dispatch ---------------------------------------------------


def test_dead_dispatch_fails_its_items_and_the_kernel_stays_the_route(
    monkeypatch,
):
    # A kernel pass that dies wholesale fails every item of its dispatch
    # with an "internal error" message; the points never move to another pricing path,
    # and the next dispatch (the kernel healed) prices them normally.
    from repro.core import analytical_batch

    real = analytical_batch.evaluate_points
    poisoned = [True]

    def evaluate_points(points):
        if poisoned[0]:
            raise RuntimeError("kernel poisoned")
        return real(points)

    monkeypatch.setattr(analytical_batch, "evaluate_points", evaluate_points)
    service = SimulationService(
        ServiceConfig(max_workers=2)
    )
    requests = [
        api.SimulationRequest("Resnet-50", "trainbox", scale)
        for scale in (4, 8)
    ]

    async def main():
        try:
            dead = await asyncio.gather(
                *(service.handle(_envelope(r, rid=i))
                  for i, r in enumerate(requests))
            )
            poisoned[0] = False
            healed = await service.handle(_envelope(requests[0], rid=2))
            return dead, healed
        finally:
            service.close()

    dead, healed = asyncio.run(main())
    for response in dead:
        assert response["status"] == "error"
        assert response["error"]["code"] == "compute"
        assert response["error"]["message"] == (
            "internal error: RuntimeError: kernel poisoned"
        )
    assert healed["status"] == "ok"
    assert healed["payload"] == server_mod.execute_request(requests[0])
    counters = _counters(service)
    assert counters["service.batch_dispatches"] == 2
    assert counters["service.batch_dispatch_errors"] == 1
    assert counters["service.batch_point_kernel"] == 1
    assert counters.get("service.batch_point_scalar", 0) == 0


# -- disconnect cancellation over real sockets --------------------------------


def _poll(fn, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fn():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within the poll budget")


def test_disconnect_mid_request_resolves_coalesced_waiter(monkeypatch):
    # The connection that started a computation dies mid-compute: the
    # EOF cancels its frame task, which releases its work item — but the
    # waiter on another connection still holds it, so the engine run
    # completes and the waiter is answered ok.
    _slow_engine(monkeypatch, 0.5)
    config = ServiceConfig(max_workers=2)
    with ServerThread(config) as srv:
        service = srv.service
        owner = ServiceClient(*srv.address)
        with ServiceClient(*srv.address) as waiter:
            owner._send(owner._envelope(FAULT, False, None))
            _poll(lambda: len(service._batch._inflight) == 1)
            waiter._send(waiter._envelope(FAULT, False, None))
            _poll(
                lambda: _counters(service).get(
                    "service.batch_point_stitched", 0
                ) >= 1
            )
            owner.close()  # the owner walks away mid-request
            response = waiter._recv()
            assert response["status"] == "ok"
            assert response["meta"]["served_by"] == "coalesced"
            assert response["payload"] == server_mod.execute_request(FAULT)
        counters = _counters(service)
        assert counters["service.cancelled"] == 1
        assert counters.get("service.batch_point_abandoned", 0) == 0


def test_disconnect_abandons_sole_waiter_batch_point(engine_gate):
    # The only client interested in a queued DES point disconnects
    # while the only engine thread is held: the point is abandoned
    # before it ever reaches an engine.
    config = ServiceConfig(max_workers=1)
    with ServerThread(config) as srv:
        service = srv.service
        with ServiceClient(*srv.address) as holder:
            holder._send(holder._envelope(FAULT, False, None))
            _poll(lambda: _inflight(service, FAULT))
            doomed = ServiceClient(*srv.address)
            doomed._send(doomed._envelope(DES, False, None))
            _poll(lambda: _inflight(service, DES))
            doomed.close()
            _poll(
                lambda: _counters(service).get(
                    "service.batch_point_abandoned", 0
                ) >= 1
            )
            counters = _counters(service)
            assert counters["service.cancelled"] == 1
            assert counters.get("service.batch_point_scalar", 0) == 0
            engine_gate.set()
            assert holder._recv()["status"] == "ok"
            assert _counters(service)["service.batch_point_scalar"] == 1


# -- frame cap ----------------------------------------------------------------


def test_oversized_frame_answers_and_closes():
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        with ServiceClient(*srv.address) as client:
            blob = b"x" * (protocol.MAX_FRAME_BYTES + 16) + b"\n"
            client._sock.sendall(blob)
            response = client._recv()
            assert response["status"] == "error"
            assert response["error"]["code"] == "frame-too-large"
            # The server hangs up after an unframeable stream.
            with pytest.raises(ConnectionLost):
                client._recv()
        # The listener is unharmed: a fresh connection works.
        with ServiceClient(*srv.address) as client:
            assert client.ping()["payload"]["kind"] == "pong"


# -- graceful drain -----------------------------------------------------------


def test_draining_rejects_new_work_but_answers_admin_ops():
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        try:
            before = await service.handle(_envelope(REQ, rid=1))
            service.begin_drain()
            during = await service.handle(_envelope(REQ, rid=2))
            stats = await service.handle({"id": 3, "op": "stats"})
            report = await service.aclose()
            return before, during, stats, report
        finally:
            service.close()

    before, during, stats, report = asyncio.run(main())
    assert before["status"] == "ok"
    assert during["status"] == "rejected"
    assert during["error"]["code"] == "draining"
    assert during["meta"]["retry_after"] > 0
    assert stats["status"] == "ok"
    assert stats["payload"]["draining"] is True
    assert report["drained"] is True
    assert report["stranded"] == 0


def test_drain_completes_inflight_and_stores_its_result(
    monkeypatch, tmp_path
):
    _slow_engine(monkeypatch, 0.2)
    cache_dir = tmp_path / "cache"
    service = SimulationService(
        ServiceConfig(max_workers=1, cache_dir=cache_dir)
    )
    fp = FAULT.fingerprint()

    async def main():
        inflight = asyncio.create_task(service.handle(_envelope(FAULT)))
        while not _inflight(service, FAULT):
            await asyncio.sleep(0.005)
        report = await service.aclose()
        return await inflight, report

    response, report = asyncio.run(main())
    # The admitted request completed and was answered during the drain.
    assert response["status"] == "ok"
    assert report["drained"] is True
    assert report["stranded"] == 0
    # Drained work is durable: its entry is on disk after aclose().
    from repro.cache import ResultCache

    assert ResultCache(cache_dir).get(fp) is not None
    assert _counters(service)["service.drained_clean"] == 1


def test_drain_timeout_reports_undrained(monkeypatch):
    _slow_engine(monkeypatch, 0.5)
    service = SimulationService(ServiceConfig(max_workers=1))

    async def main():
        task = asyncio.create_task(service.handle(_envelope(FAULT)))
        while not _inflight(service, FAULT):
            await asyncio.sleep(0.005)
        report = await service.drain(timeout=0.05)
        response = await task  # then let it finish for a clean teardown
        await service.aclose()
        return report, response

    report, response = asyncio.run(main())
    assert report["drained"] is False
    assert report["pending"] == 1
    assert response["status"] == "rejected" or response["status"] == "ok"


def test_server_thread_drain_report_is_clean():
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        with ServiceClient(*srv.address) as client:
            assert client.call(REQ)["status"] == "ok"
    report = srv.drain_report
    assert report is not None
    assert report["drained"] is True
    assert report["stranded"] == 0


def test_close_tears_down_a_connection_accepted_as_it_begins():
    # The loop accepts the client in the step before close() starts, so
    # its transport is not made yet; closing the listener first failed
    # that transport's creation (logged in debug mode) and leaked the
    # server's end of the socket.
    errors = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, ctx: errors.append(ctx))
        server = SimulationServer(
            SimulationService(ServiceConfig(max_workers=1))
        )
        address = await server.start()
        with socket.create_connection(address, timeout=5.0) as sock:
            await asyncio.sleep(0)  # the loop sees the listener readable
            await asyncio.sleep(0)  # ... and accepts
            await server.close()
            assert sock.recv(1) == b""  # the server closed its end

    asyncio.run(main(), debug=True)
    assert errors == []


def test_server_thread_stop_is_idempotent():
    srv = ServerThread(ServiceConfig(max_workers=1)).__enter__()
    srv.stop()
    srv.stop()  # a second stop on a joined thread is a no-op
    assert srv.drain_report["drained"] is True


# -- client retry policy ------------------------------------------------------


def test_retry_policy_delay_honors_hint_jitter_and_cap():
    import random

    policy = RetryPolicy(
        base_backoff=0.1, max_backoff=1.0, jitter=0.5, seed=7
    )
    rng = random.Random(7)
    # The server hint dominates a small exponential term...
    delay = policy.delay(0, retry_after=0.5, rng=rng)
    assert 0.5 <= delay <= 0.75
    # ...the exponential term dominates a zero hint...
    delay = policy.delay(2, retry_after=0.0, rng=rng)
    assert 0.4 <= delay <= 0.6
    # ...and the cap bounds both (pre-jitter).
    delay = policy.delay(10, retry_after=30.0, rng=rng)
    assert delay <= 1.5
    zero_jitter = RetryPolicy(base_backoff=0.1, max_backoff=1.0, jitter=0.0)
    assert zero_jitter.delay(0, 0.0, rng) == 0.1
    with pytest.raises(ConfigError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=2.0)


def test_client_retries_backpressure_to_success(monkeypatch):
    _slow_engine(monkeypatch, 0.3)
    config = ServiceConfig(max_workers=1, max_pending=1)
    other = api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16, events=(), horizon=90.0
    )
    with ServerThread(config) as srv:
        service = srv.service
        hog = ServiceClient(*srv.address)
        try:
            hog._send(hog._envelope(FAULT, False, None))
            _poll(lambda: service.stats()["pending"] >= 1)
            retrying = ServiceClient(
                *srv.address,
                retry=RetryPolicy(
                    max_attempts=6, base_backoff=0.05, jitter=0.2, seed=3
                ),
            )
            with retrying:
                response = retrying.call(other)
            assert response["status"] == "ok"
            assert hog._recv()["status"] == "ok"
        finally:
            hog.close()
        assert _counters(service)["service.rejected_backpressure"] >= 1


def test_client_reconnects_on_broken_pipe():
    # shutdown(), not close(): close() defers the real FD teardown while
    # the makefile reader holds a reference, so sends would still work.
    with ServerThread(ServiceConfig(max_workers=1)) as srv:
        with ServiceClient(
            *srv.address, retry=RetryPolicy(max_attempts=3, seed=1)
        ) as client:
            client._sock.shutdown(socket.SHUT_RDWR)  # transport dies
            response = client.call(REQ)
            assert response["status"] == "ok"
        # Without a policy the same breakage surfaces as ConnectionLost.
        with ServiceClient(*srv.address) as bare:
            bare._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ConnectionLost):
                bare.call(REQ)


def test_request_many_redials_and_resends_unanswered():
    requests = [
        api.SimulationRequest("VGG-19", "baseline", s) for s in (4, 16, 64)
    ]
    with ServerThread(ServiceConfig(max_workers=2)) as srv:
        with ServiceClient(*srv.address) as client:
            client._sock.shutdown(socket.SHUT_RDWR)  # first dial fails
            responses = client.request_many(requests)
            assert [r["status"] for r in responses] == ["ok"] * 3
            # Answers are in request order despite the redial's fresh ids.
            for request, response in zip(requests, responses):
                assert (
                    response["meta"]["fingerprint"] == request.fingerprint()
                )
