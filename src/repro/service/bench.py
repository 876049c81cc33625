"""Service load harness: N concurrent clients replaying a trace.

The gate behind ``repro bench-service`` and
``benchmarks/bench_service.py``.  A :class:`~repro.service.server.
ServerThread` is started fresh (empty memo, optional empty disk tier), a
deterministic trace is dealt round-robin to ``n_clients`` threads, and
every response is checked **bit-identical** against a direct
:func:`~repro.service.server.execute_request` evaluation of the same
request object — the service may change *when* a result is computed,
never *what*.

Because the server starts cold, the accounting is deterministic whatever
the interleaving: every distinct work item in the trace (an evaluation
point, or a whole fault-schedule request) is priced exactly once, and
every request is answered from the memo, by coalescing onto work in
flight, or by computing — ``memo + coalesced + computed == total``.
Latency lands in the committed baseline as rates (1/p50, 1/p99) so the
existing :mod:`repro.perf` regression machinery gates it unchanged.

:func:`run_load_test` replays the mixed trace with duplicates, one call
at a time per client.  :func:`run_distinct_test` targets cross-request
batching: an **all-distinct** analytical trace (no duplicates, so the
memo and coalescing can do nothing) is pipelined from N clients, every
point must be priced by a kernel dispatch, and the dispatches must hold
more than a handful of points each.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import api
from repro.errors import ConfigError
from repro.perf import Measurement
from repro.service.batch import work_items
from repro.service.chaos import ChaosInjector, ServiceChaosSpec
from repro.service.client import ConnectionLost, RetryPolicy, ServiceClient
from repro.service.server import (
    ServerThread,
    ServiceConfig,
    execute_request,
)

__all__ = [
    "BASELINE_PATH",
    "BATCH_BASELINE_PATH",
    "ChaosReport",
    "LoadReport",
    "distinct_trace",
    "mixed_trace",
    "run_chaos_drill",
    "run_distinct_test",
    "run_load_test",
]

#: Where the committed service latency baseline lives.
BASELINE_PATH = (
    Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "baselines"
    / "service_latency.json"
)

#: The committed cross-request batching baseline (distinct-point trace).
BATCH_BASELINE_PATH = BASELINE_PATH.with_name("service_batch.json")


def mixed_trace() -> List:
    """The deterministic unique-request trace the load test replays.

    A realistic mix: mostly cheap analytical simulates across several
    workloads/architectures/scales, a couple of DES runs (the expensive
    tail that makes coalescing visible), one small sweep and one
    fault-schedule pricing.
    """
    requests: List = []
    for workload in ("Resnet-50", "VGG-19", "RNN-S", "Transformer-SR"):
        for arch in ("baseline", "trainbox"):
            for scale in (16, 64, 256):
                requests.append(
                    api.SimulationRequest(workload, arch, scale)
                )
    requests.append(
        api.SimulationRequest(
            "Resnet-50", "trainbox", 16, engine="des", des_iterations=12
        )
    )
    requests.append(
        api.SimulationRequest(
            "Inception-v4", "trainbox", 32, engine="des", des_iterations=12
        )
    )
    requests.append(
        api.SweepRequest(
            workloads=("Resnet-50", "RNN-L"),
            archs=("baseline", "trainbox"),
            scales=(16, 64),
        )
    )
    from repro.core.server import build_server

    server = build_server(api.resolve_arch("trainbox"), 16)
    fpga = server.boxes[0].prep_ids[0]
    requests.append(
        api.FaultScheduleRequest(
            "Resnet-50",
            "trainbox",
            16,
            events=((fpga, 10.0, 40.0),),
            horizon=60.0,
        )
    )
    return requests


def distinct_trace() -> List:
    """An all-distinct analytical trace: every Table I workload crossed
    with four architectures and the full scale ladder (252 requests, no
    two sharing a point).  Coalescing and the memo cannot help here —
    only cross-request batching can collapse the work.
    """
    from repro.core.sweeps import SCALE_LADDER
    from repro.workloads.registry import workload_names

    return [
        api.SimulationRequest(workload, arch, scale)
        for workload in workload_names()
        for arch in ("baseline", "acc", "trainbox", "gen4")
        for scale in SCALE_LADDER
    ]


def _shuffled(items: List, seed: int) -> List:
    """Deterministic shuffle (LCG Fisher–Yates, independent of the
    global RNG state)."""
    out = list(items)
    state = seed & 0xFFFFFFFF
    for i in range(len(out) - 1, 0, -1):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        j = state % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass
class LoadReport:
    """What one load-test run measured.

    ``items`` counts the distinct work items in the trace and ``priced``
    the items the server priced (kernel or scalar)."""

    name: str
    n_clients: int
    total: int
    unique: int
    duplicates: int
    items: int
    priced: int
    computed: int
    coalesced: int
    memo_hits: int
    disk_hits: int
    errors: int
    rejected: int
    batch_points: int
    batch_dispatches: int
    batch_kernel: int
    wall_seconds: float
    latencies: List[float] = field(repr=False)

    @property
    def p50_seconds(self) -> float:
        return self._quantile(0.50)

    @property
    def p99_seconds(self) -> float:
        return self._quantile(0.99)

    def _quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    @property
    def points_per_dispatch(self) -> float:
        """Mean stitched points per kernel-window dispatch."""
        if self.batch_dispatches <= 0:
            return 0.0
        return self.batch_points / self.batch_dispatches

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of all requests served without an engine run."""
        if self.total <= 0:
            return 0.0
        return (
            self.coalesced + self.memo_hits + self.disk_hits
        ) / self.total

    def measurements(self) -> List[Measurement]:
        """The latency figures as :mod:`repro.perf` rate measurements
        (1/latency, so 'samples per second' still means faster=bigger
        and the standard regression tolerance applies unchanged)."""
        return [
            Measurement(f"{self.name}_p50_rate", 1, self.p50_seconds),
            Measurement(f"{self.name}_p99_rate", 1, self.p99_seconds),
            Measurement(
                f"{self.name}_throughput", self.total, self.wall_seconds
            ),
        ]

    def summary(self) -> str:
        return (
            f"{self.total} requests ({self.unique} unique, "
            f"{self.duplicates} duplicates, {self.items} work items) over "
            f"{self.n_clients} clients in {self.wall_seconds:.2f}s — "
            f"p50 {self.p50_seconds * 1e3:.1f} ms, "
            f"p99 {self.p99_seconds * 1e3:.1f} ms, "
            f"computed {self.computed}, coalesced {self.coalesced}, "
            f"memo {self.memo_hits}, "
            f"cache-hit ratio {self.cache_hit_ratio:.0%}; "
            f"{self.batch_points} points in {self.batch_dispatches} "
            f"dispatches ({self.points_per_dispatch:.1f} points/dispatch, "
            f"{self.batch_kernel} kernel-priced)"
        )


def _replay(
    name: str,
    unique: List,
    trace: List,
    n_clients: int,
    config: ServiceConfig,
    check_identity: bool,
    pipelined: bool,
) -> LoadReport:
    """One cold-server run: shard the trace over ``n_clients`` clients.

    Pipelined clients write their whole shard before reading any
    response, so the server sees the concurrent burst a batching window
    needs; otherwise each client times one call at a time.  With
    ``check_identity`` every response payload is compared — canonical
    JSON, hence bit-for-bit — against a direct :func:`execute_request`
    evaluation (which also warms the process-global model memos, so the
    timed window pays no first-touch compilation), and each distinct
    work item is asserted priced exactly once, with every request
    answered by the memo, coalescing or computing.
    """
    expected: Dict[str, str] = {}
    if check_identity:
        for request in unique:
            expected[request.fingerprint()] = json.dumps(
                execute_request(request), sort_keys=True
            )
    shards = [trace[i::n_clients] for i in range(n_clients)]
    shards = [s for s in shards if s]
    latencies: List[List[float]] = [[] for _ in shards]
    failures: List[str] = []
    barrier = threading.Barrier(len(shards) + 1)

    with ServerThread(config) as srv:
        host, port = srv.address

        def worker(idx: int) -> None:
            try:
                with ServiceClient(
                    host, port, tenant=f"tenant-{idx % 4}"
                ) as client:
                    barrier.wait()
                    if pipelined:
                        responses = client.request_many(
                            shards[idx], latencies=latencies[idx]
                        )
                    else:
                        responses = []
                        for request in shards[idx]:
                            t0 = time.perf_counter()
                            responses.append(client.call(request))
                            latencies[idx].append(time.perf_counter() - t0)
                    for request, response in zip(shards[idx], responses):
                        if response.get("status") != "ok":
                            failures.append(
                                f"client {idx}: {response.get('error')}"
                            )
                        elif expected and json.dumps(
                            response["payload"], sort_keys=True
                        ) != expected[request.fingerprint()]:
                            failures.append(
                                f"client {idx}: response for "
                                f"{request.kind} diverged from the "
                                f"direct api call"
                            )
            except Exception as exc:  # surfaced after join
                failures.append(f"client {idx}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(len(shards))
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join(timeout=600)
        wall = time.perf_counter() - t0
        counters = srv.service.registry.to_manifest()["counters"]

    if failures:
        raise ConfigError(
            f"service {name} run failed ({len(failures)} failures): "
            + "; ".join(failures[:5])
        )

    report = LoadReport(
        name=name,
        n_clients=n_clients,
        total=len(trace),
        unique=len(unique),
        duplicates=len(trace) - len(unique),
        items=len({
            key for request in unique for key, _ in work_items(request)[1]
        }),
        priced=counters.get("service.batch_point_kernel", 0)
        + counters.get("service.batch_point_scalar", 0),
        computed=counters.get("service.computed", 0),
        coalesced=counters.get("service.coalesced", 0),
        memo_hits=counters.get("service.memo_hits", 0),
        disk_hits=counters.get("service.disk_hits", 0)
        + counters.get("service.shared_hits", 0),
        errors=counters.get("service.errors", 0),
        rejected=counters.get("service.rejected_backpressure", 0)
        + counters.get("service.rejected_quota", 0),
        batch_points=counters.get("service.batch_points", 0),
        batch_dispatches=counters.get("service.batch_dispatches", 0),
        batch_kernel=counters.get("service.batch_point_kernel", 0),
        wall_seconds=wall,
        latencies=[lat for per_client in latencies for lat in per_client],
    )
    if check_identity:
        # Cold server: whatever the timing, every distinct item is
        # priced by exactly one engine pass (kernel or scalar), and
        # every request is served without one or by computing.
        if report.priced != report.items:
            raise ConfigError(
                f"dedup broke: {report.priced} items priced for "
                f"{report.items} distinct work items"
            )
        served = report.memo_hits + report.coalesced + report.computed
        if served != report.total:
            raise ConfigError(
                f"accounting broke: {report.memo_hits} memo + "
                f"{report.coalesced} coalesced + {report.computed} "
                f"computed != {report.total} requests"
            )
    return report


def run_load_test(
    n_clients: int = 16,
    dup_factor: int = 2,
    config: Optional[ServiceConfig] = None,
    seed: int = 17,
    check_identity: bool = True,
) -> LoadReport:
    """Replay the mixed trace from ``n_clients`` concurrent clients.

    ``dup_factor`` copies of every unique request are interleaved
    (``dup_factor=2`` → 50% duplicates), so both coalescing and the memo
    are exercised; see :func:`_replay` for what ``check_identity``
    asserts.
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    if dup_factor < 1:
        raise ConfigError("dup_factor must be >= 1")
    unique = mixed_trace()
    trace = _shuffled(unique * dup_factor, seed)
    config = config or ServiceConfig(
        max_workers=4, max_pending=max(64, len(trace))
    )
    return _replay(
        "service", unique, trace, n_clients, config, check_identity,
        pipelined=False,
    )


def run_distinct_test(
    n_clients: int = 16,
    config: Optional[ServiceConfig] = None,
    seed: int = 23,
    check_identity: bool = True,
    min_points_per_dispatch: float = 4.0,
) -> LoadReport:
    """Pipeline the all-distinct analytical trace from ``n_clients``.

    On top of :func:`_replay`'s checks, ``check_identity`` asserts that
    every point was priced by a kernel dispatch and that the dispatches
    stitched real batches (``points/dispatch >
    min_points_per_dispatch``).
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    trace = _shuffled(distinct_trace(), seed)
    config = config or ServiceConfig(max_pending=max(64, len(trace)))
    if config.max_pending < len(trace):
        config = dataclasses.replace(config, max_pending=len(trace))
    report = _replay(
        "service_batch", trace, trace, n_clients, config, check_identity,
        pipelined=True,
    )
    if check_identity:
        if report.batch_kernel != report.items:
            raise ConfigError(
                f"batch routing broke: {report.batch_kernel} of "
                f"{report.items} points priced by the kernel"
            )
        if report.points_per_dispatch <= min_points_per_dispatch:
            raise ConfigError(
                f"batching degenerated: {report.batch_points} points over "
                f"{report.batch_dispatches} dispatches "
                f"({report.points_per_dispatch:.1f} <= "
                f"{min_points_per_dispatch} points/dispatch)"
            )
    return report


# -- the service chaos drill --------------------------------------------------


@dataclass
class ChaosReport:
    """What one chaos drill run observed and proved."""

    seed: int
    n_clients: int
    total: int
    ok: int
    healed: int           # requests that needed >= 1 resend to get ok
    drops: int            # connections slammed mid-request
    deadline_probes: int  # tiny-budget requests sent
    faults: Dict[str, int]       # injector tallies per fault kind
    counters: Dict[str, int]     # final server counters
    drain: Dict                  # the server's drain report

    def summary(self) -> str:
        injected = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.faults.items())
            if count
        )
        return (
            f"seed {self.seed}: {self.total} requests over "
            f"{self.n_clients} clients — {self.ok} ok "
            f"({self.healed} healed by resend), {self.drops} connections "
            f"dropped, {self.deadline_probes} deadline probes; injected "
            f"[{injected or 'nothing'}]; drained "
            f"{'clean' if self.drain.get('drained') else 'DIRTY'} "
            f"(stranded {self.drain.get('stranded')}, "
            f"{self.drain.get('writebacks_flushed')} write-backs flushed)"
        )


#: Terminal outcome counters: every request the broker admits lands in
#: exactly one of these, so their sum must equal ``service.requests``.
_OUTCOME_COUNTERS = (
    "service.memo_hits",
    "service.coalesced",
    "service.computed",
    "service.disk_hits",
    "service.shared_hits",
    "service.rejected_quota",
    "service.rejected_backpressure",
    "service.rejected_draining",
    "service.deadline_exceeded",
    "service.errors",
    "service.cancelled",
)


def run_chaos_drill(
    n_clients: int = 3,
    dup_factor: int = 2,
    seed: int = 5,
    config: Optional[ServiceConfig] = None,
    max_attempts: int = 8,
) -> ChaosReport:
    """The service chaos drill: seeded faults, provable recovery.

    A server is started with a :class:`~repro.service.chaos.
    ChaosInjector` wired through every layer — executor-task exceptions
    and added latency on items priced alone, point- and dispatch-level
    faults in kernel dispatches (the dispatch faults trip the kernel
    breaker), OSErrors from both disk tiers, and client connections
    slammed mid-request.  Every client resends failed requests (safe:
    idempotent by fingerprint; injected faults heal on resend) until it
    holds an ``ok`` answer for each, then the drill asserts:

    * **bit-identity** — every ``ok`` payload equals a direct
      :func:`execute_request` evaluation, canonical JSON, byte for byte;
      faults may delay or reroute an answer, never change it;
    * **accounting balance** — the terminal-outcome counters partition
      ``service.requests`` exactly (nothing double-counted, nothing
      lost), with cancellations and deadline rejections included;
    * **clean drain** — stopping the server completes in-flight work,
      reports zero stranded futures, and leaves the deferred shared-tier
      write-back queue empty.

    Deterministic per seed in every *decision* (which work item
    faults, which dispatch ordinals die, which connections drop);
    assertions are invariants, so thread interleaving cannot flake them.
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    if dup_factor < 1:
        raise ConfigError("dup_factor must be >= 1")
    spec = ServiceChaosSpec(
        seed=seed,
        compute_error_rate=0.25,
        compute_delay_rate=0.25,
        compute_delay_ms=2.0,
        point_error_rate=0.10,
        dispatch_fault_ordinals=(0, 1, 2),
        disk_error_rate=0.30,
        drop_rate=0.25,
    )
    injector = ChaosInjector(spec)
    unique = mixed_trace()
    expected = {
        request.fingerprint(): json.dumps(
            execute_request(request), sort_keys=True
        )
        for request in unique
    }

    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    config = config or ServiceConfig(
        max_workers=2,
        max_pending=4 * len(unique) * dup_factor,
        breaker_threshold=3,
        breaker_probe_after=4,
        batch_window_ms=1.0,
    )
    config = dataclasses.replace(
        config, cache_dir=tmp / "disk", shared_dir=tmp / "shared"
    )

    failures: List[str] = []
    ok = [0] * n_clients
    healed = [0] * n_clients
    drops = [0] * n_clients
    deadline_probes = [0] * n_clients
    barrier = threading.Barrier(n_clients + 1)

    try:
        with ServerThread(config, chaos=injector) as srv:
            host, port = srv.address

            def worker(idx: int) -> None:
                policy = RetryPolicy(
                    seed=seed * 1000 + idx,
                    base_backoff=0.002,
                    max_backoff=0.05,
                )
                trace = _shuffled(unique * dup_factor, seed * 101 + idx)
                try:
                    with ServiceClient(
                        host, port, tenant=f"tenant-{idx}", retry=policy
                    ) as client:
                        barrier.wait()
                        for n, request in enumerate(trace):
                            token = f"client{idx}:req{n}"
                            if injector.drop_connection(token):
                                # Slam the connection mid-request: write
                                # the frame, close without reading, and
                                # redial.  The server must cancel the
                                # orphaned work and keep every other
                                # waiter healthy.
                                drops[idx] += 1
                                try:
                                    client._send(
                                        client._envelope(request, False, None)
                                    )
                                except ConnectionLost:
                                    pass
                                client._reconnect()
                            for attempt in range(max_attempts):
                                response = client.call(request)
                                status = response.get("status")
                                if status == "ok":
                                    got = json.dumps(
                                        response["payload"], sort_keys=True
                                    )
                                    want = expected[request.fingerprint()]
                                    if got != want:
                                        failures.append(
                                            f"client {idx}: {request.kind} "
                                            f"response diverged from "
                                            f"execute_request"
                                        )
                                    else:
                                        ok[idx] += 1
                                        if attempt > 0:
                                            healed[idx] += 1
                                    break
                                # Injected faults answer as error or
                                # retryable rejection; resend — it must
                                # heal (first_attempt_only) or be served
                                # by a cache tier.
                            else:
                                failures.append(
                                    f"client {idx}: {request.kind} never "
                                    f"recovered after {max_attempts} "
                                    f"attempts: {response.get('error')}"
                                )
                        # A couple of vanishingly small budgets: the
                        # answer is either a fast ok or an honest
                        # deadline_exceeded — never a hang, never a
                        # broken invariant.
                        for request in unique[:2]:
                            deadline_probes[idx] += 1
                            response = client.call(
                                request, deadline_ms=0.01
                            )
                            status = response.get("status")
                            code = (response.get("error") or {}).get("code")
                            if status == "ok":
                                continue
                            if not (
                                status == "rejected"
                                and code == "deadline_exceeded"
                            ):
                                failures.append(
                                    f"client {idx}: deadline probe got "
                                    f"{status}/{code}"
                                )
                except Exception as exc:  # surfaced after join
                    failures.append(
                        f"client {idx}: {type(exc).__name__}: {exc}"
                    )

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            for t in threads:
                t.join(timeout=600)
            alive = [t for t in threads if t.is_alive()]
            if alive:
                failures.append(f"{len(alive)} client threads hung")

        service = srv.service
        drain = srv.drain_report or {}
        counters = service.registry.to_manifest()["counters"]
        faults = injector.snapshot()

        if failures:
            raise ConfigError(
                f"chaos drill (seed {seed}) failed "
                f"({len(failures)} failures): " + "; ".join(failures[:5])
            )

        # Accounting balance: outcomes partition the admitted requests.
        outcomes = sum(
            counters.get(name, 0) for name in _OUTCOME_COUNTERS
        )
        requests = counters.get("service.requests", 0)
        if outcomes != requests:
            raise ConfigError(
                f"chaos drill (seed {seed}): accounting does not balance "
                f"— {requests} requests vs {outcomes} summed outcomes"
            )

        # The listed dispatch ordinals each faulted exactly once, and
        # the drill generated enough dispatches to consume them all.
        n_dispatch_faults = len(spec.dispatch_fault_ordinals)
        if counters.get("service.batch_dispatches", 0) < n_dispatch_faults:
            raise ConfigError(
                f"chaos drill (seed {seed}): too few batch dispatches to "
                f"exercise the dispatch faults"
            )
        if counters.get("service.batch_dispatch_errors", 0) != n_dispatch_faults:
            raise ConfigError(
                f"chaos drill (seed {seed}): expected "
                f"{n_dispatch_faults} dispatch errors, saw "
                f"{counters.get('service.batch_dispatch_errors', 0)}"
            )

        # Clean drain: everything scattered, nothing stranded, the
        # write-back queue flushed to the shared tier.
        if not drain.get("drained") or drain.get("stranded", 1) != 0:
            raise ConfigError(
                f"chaos drill (seed {seed}): dirty drain: {drain}"
            )
        if len(service._batch._writeback) != 0:
            raise ConfigError(
                f"chaos drill (seed {seed}): "
                f"{len(service._batch._writeback)} write-backs stranded"
            )

        return ChaosReport(
            seed=seed,
            n_clients=n_clients,
            total=n_clients * len(unique) * dup_factor,
            ok=sum(ok),
            healed=sum(healed),
            drops=sum(drops),
            deadline_probes=sum(deadline_probes),
            faults=faults,
            counters=dict(counters),
            drain=dict(drain),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
