"""Property: the work-item scheduler is invisible.

Random mixes of ``simulate`` (analytical, DES, flow), ``sweep`` and
fault-schedule requests — with duplicate requests and sweeps overlapping
simulates on shared points, concurrently and pipelined — served by a
cold service must answer bit-identical to a direct
:func:`execute_request` evaluation of each request, and every distinct
work item must be priced exactly once, whichever request started it."""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro import api
from repro.service import (
    ServiceConfig,
    SimulationService,
    execute_request,
    work_items,
)
from repro.workloads.registry import workload_names

WORKLOADS = workload_names()
ARCHS = ["baseline", "acc", "trainbox", "gen4"]
SCALES = [1, 4, 16, 64, 256]
#: Scales the engines that run a whole pipeline price in milliseconds.
SMALL_SCALES = [4, 16]

simulate_strategy = st.builds(
    api.SimulationRequest,
    workload=st.sampled_from(WORKLOADS),
    arch=st.sampled_from(ARCHS),
    scale=st.sampled_from(SCALES),
)

scalar_simulate_strategy = st.builds(
    api.SimulationRequest,
    workload=st.sampled_from(["Resnet-50", "VGG-19"]),
    arch=st.sampled_from(["baseline", "trainbox"]),
    scale=st.sampled_from(SMALL_SCALES),
    engine=st.sampled_from(["des", "flow"]),
    des_iterations=st.just(8),
)

sweep_strategy = st.builds(
    lambda workloads, archs, scales, engine: api.SweepRequest(
        workloads=tuple(workloads), archs=tuple(archs), scales=tuple(scales),
        engine=engine, des_iterations=8,
    ),
    workloads=st.lists(
        st.sampled_from(WORKLOADS), min_size=1, max_size=2, unique=True
    ),
    archs=st.lists(
        st.sampled_from(ARCHS), min_size=1, max_size=2, unique=True
    ),
    scales=st.lists(
        st.sampled_from(SMALL_SCALES), min_size=1, max_size=2, unique=True
    ),
    engine=st.sampled_from(["analytical", "analytical", "des"]),
)

fault_strategy = st.builds(
    lambda horizon: api.FaultScheduleRequest(
        "Resnet-50", "trainbox", 16, events=(), horizon=horizon
    ),
    horizon=st.sampled_from([30.0, 60.0]),
)

requests_strategy = st.lists(
    st.one_of(
        simulate_strategy,
        scalar_simulate_strategy,
        sweep_strategy,
        fault_strategy,
    ),
    min_size=1,
    max_size=8,
)


def _serve(requests, config):
    service = SimulationService(config)
    envelopes = [
        {"id": i, "tenant": f"t{i % 3}", "request": r.to_dict()}
        for i, r in enumerate(requests)
    ]

    async def main():
        try:
            return await asyncio.gather(
                *(service.handle(e) for e in envelopes)
            )
        finally:
            await service.aclose()

    return asyncio.run(main()), service


@given(requests=requests_strategy, max_points=st.sampled_from([2, 7, 256]))
@settings(max_examples=12, deadline=None)
def test_batched_service_is_bit_identical(requests, max_points):
    responses, service = _serve(
        requests,
        ServiceConfig(max_workers=2, max_batch_points=max_points),
    )
    for request, response in zip(requests, responses):
        assert response["status"] == "ok"
        assert response["meta"]["served_by"] in (
            "computed",
            "coalesced",
            "memo",
        )
        assert response["meta"]["fingerprint"] == request.fingerprint()
        assert json.dumps(
            response["payload"], sort_keys=True
        ) == json.dumps(execute_request(request), sort_keys=True)

    counters = service.registry.to_manifest()["counters"]
    keys = {key for r in requests for key, _work in work_items(r)[1]}
    # Every distinct item was started once and priced once, by the
    # kernel or on its own.
    assert counters.get("service.batch_point_queued", 0) == len(keys)
    assert counters.get("service.batch_point_kernel", 0) + counters.get(
        "service.batch_point_scalar", 0
    ) == len(keys)
    served = sum(
        counters.get(f"service.{name}", 0)
        for name in ("computed", "coalesced", "memo_hits")
    )
    assert served == len(requests)


# -- one item per key per dispatch ----------------------------------------

#: A small request pool, so drawn mixes repeat requests and overlap:
#: the sweeps share their points with the simulates.
DUP_REQUESTS = [
    api.SimulationRequest(workload, arch, scale)
    for workload in ("Resnet-50", "VGG-19")
    for arch in ("baseline", "trainbox")
    for scale in SMALL_SCALES
] + [
    api.SweepRequest(
        workloads=("Resnet-50", "VGG-19"), archs=("trainbox",),
        scales=tuple(SMALL_SCALES),
    ),
    api.SweepRequest(
        workloads=("Resnet-50",), archs=("baseline", "trainbox"),
        scales=tuple(SMALL_SCALES),
    ),
]

wave_strategy = st.lists(
    st.tuples(st.sampled_from(DUP_REQUESTS), st.booleans()),
    min_size=1,
    max_size=10,
)


@given(
    first=wave_strategy,
    second=wave_strategy,
    max_points=st.sampled_from([2, 7, 256]),
)
@settings(max_examples=15, deadline=None)
def test_no_dispatch_repeats_a_work_item_key(first, second, max_points):
    """Single-flight hands each key to one item, so the kernel never
    sees a key twice in one dispatch — with duplicate-heavy and
    overlapping mixes, and with requests cancelled while their items
    sit in the queue, then asked for again."""
    from repro.core import analytical_batch
    from repro.core.sweeps import cache_key

    dispatched = []
    real = analytical_batch.evaluate_points

    def recording(points):
        dispatched.append([cache_key(point) for point in points])
        return real(points)

    service = SimulationService(
        ServiceConfig(max_workers=2, max_batch_points=max_points)
    )

    async def main():
        tasks = []
        try:
            for wave in (first, second):
                started = []
                for i, (request, cancel) in enumerate(wave):
                    envelope = {
                        "id": len(tasks), "tenant": f"t{i % 3}",
                        "request": request.to_dict(),
                    }
                    task = asyncio.ensure_future(service.handle(envelope))
                    tasks.append((request, cancel, task))
                    started.append((cancel, task))
                await asyncio.sleep(0)  # let the wave queue its items
                for cancel, task in started:
                    if cancel:
                        task.cancel()
            await asyncio.gather(
                *(task for _r, _c, task in tasks), return_exceptions=True
            )
        finally:
            await service.aclose()
        return tasks

    analytical_batch.evaluate_points = recording
    try:
        tasks = asyncio.run(main())
    finally:
        analytical_batch.evaluate_points = real

    assert dispatched or all(cancel for _r, cancel, _t in tasks)
    for keys in dispatched:
        assert len(keys) == len(set(keys)), keys
    for request, cancel, task in tasks:
        if not task.cancelled():
            response = task.result()
            assert response["status"] == "ok"
            assert response["payload"] == execute_request(request)
