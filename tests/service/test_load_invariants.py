"""Service invariants under concurrent load: identity, dedup, batching.

Each replay starts a cold :class:`ServerThread` (empty memo, no disk
tier), deals a deterministic trace round-robin over 16 client threads
and checks every response byte for byte against a direct
:func:`execute_request` evaluation of the same request: the service may
change *when* a result is computed, never *what*.  Because the server
starts cold, the accounting is deterministic whatever the interleaving:
every distinct work item is priced exactly once, and every request is
answered by the memo, by coalescing onto work in flight, or by
computing.
"""

import json
import threading

from repro import api
from repro.core.sweeps import SCALE_LADDER
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    execute_request,
    mixed_trace,
    work_items,
)
from repro.service.bench import _shuffled
from repro.workloads.registry import workload_names

N_CLIENTS = 16
CONFIG = ServiceConfig(max_workers=4, max_pending=max(64, 64 * N_CLIENTS))


def _replay(trace, pipelined):
    """Replay ``trace`` from :data:`N_CLIENTS` threads against a cold
    server, assert every response ok and bit-identical, and return the
    server's counters.  Pipelined clients write their whole shard before
    reading, so the server sees the burst a batching window needs."""
    expected = {
        request.fingerprint(): json.dumps(
            execute_request(request), sort_keys=True
        )
        for request in trace
    }
    shards = [trace[i::N_CLIENTS] for i in range(N_CLIENTS)]
    failures = []
    barrier = threading.Barrier(N_CLIENTS)

    with ServerThread(CONFIG) as srv:

        def client(idx):
            try:
                with ServiceClient(
                    *srv.address, tenant=f"tenant-{idx % 4}"
                ) as conn:
                    barrier.wait(timeout=60)
                    if pipelined:
                        responses = conn.request_many(shards[idx])
                    else:
                        responses = [conn.call(r) for r in shards[idx]]
                for request, response in zip(shards[idx], responses):
                    got = json.dumps(response.get("payload"), sort_keys=True)
                    if response.get("status") != "ok":
                        failures.append(f"{idx}: {response.get('error')}")
                    elif got != expected[request.fingerprint()]:
                        failures.append(f"{idx}: {request.kind} diverged")
            except Exception as exc:  # surfaced by the assert below
                failures.append(f"{idx}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "client hung"
        counters = srv.service.registry.to_manifest()["counters"]
    assert not failures, failures[:5]
    return counters


def _assert_accounting(counters, trace):
    items = {key for request in trace for key, _ in work_items(request)[1]}
    priced = counters.get("service.batch_point_kernel", 0) + counters.get(
        "service.batch_point_scalar", 0
    )
    served = (
        counters.get("service.memo_hits", 0)
        + counters.get("service.coalesced", 0)
        + counters.get("service.computed", 0)
    )
    assert priced == len(items), f"{priced} priced for {len(items)} items"
    assert served == len(trace)
    assert counters.get("service.errors", 0) == 0
    rejected = counters.get("service.rejected_backpressure", 0) + counters.get(
        "service.rejected_quota", 0
    )
    assert rejected == 0
    return len(items)


def test_mixed_trace_with_duplicates_is_identical_and_priced_once():
    unique = mixed_trace()
    trace = _shuffled(unique * 2, 17)
    counters = _replay(trace, pipelined=False)
    _assert_accounting(counters, trace)


def test_all_distinct_trace_is_kernel_priced_in_shared_dispatches():
    trace = _shuffled(
        [
            api.SimulationRequest(workload, arch, scale)
            for workload in workload_names()
            for arch in ("baseline", "acc", "trainbox", "gen4")
            for scale in SCALE_LADDER
        ],
        23,
    )
    assert len(trace) == 252
    counters = _replay(trace, pipelined=True)
    items = _assert_accounting(counters, trace)
    assert counters.get("service.batch_point_kernel", 0) == items == len(trace)
    points_per_dispatch = counters["service.batch_points"] / counters[
        "service.batch_dispatches"
    ]
    assert points_per_dispatch > 4
