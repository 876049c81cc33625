"""The service chaos drill and the request trace it replays.

:func:`run_chaos_drill` starts a :class:`~repro.service.server.
ServerThread` with a :class:`~repro.service.chaos.ChaosInjector` wired
through every layer, has concurrent clients replay :func:`mixed_trace`
with duplicates while faults fire, and asserts that every non-faulted
response is **bit-identical** to a direct
:func:`~repro.service.server.execute_request` evaluation of the same
request, that the outcome accounting balances, and that the server
drains clean — the service may change *when* a result is computed,
never *what*.  ``repro chaos --service`` runs it.

:func:`mixed_trace` is also the hot request set of the benchmark's
``service-mixed`` workload and of the tier-1 load-invariant tests.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import api
from repro.errors import ConfigError
from repro.service.chaos import ChaosInjector, ServiceChaosSpec
from repro.service.client import ConnectionLost, RetryPolicy, ServiceClient
from repro.service.server import (
    ServerThread,
    ServiceConfig,
    execute_request,
)

__all__ = [
    "ChaosReport",
    "mixed_trace",
    "run_chaos_drill",
]


def mixed_trace() -> List:
    """The deterministic unique-request trace the chaos drill replays.

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
            f"(stranded {self.drain.get('stranded')})"
        )


#: Terminal outcome counters: every request the broker admits lands in
#: exactly one of these, so their sum must equal ``service.requests``.
_OUTCOME_COUNTERS = (
    "service.memo_hits",
    "service.coalesced",
    "service.computed",
    "service.disk_hits",
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
    faults in kernel dispatches (a dead dispatch fails each of its items
    with an ``internal error``), OSErrors from the disk tier, and
    client connections slammed mid-request.  Every client resends failed
    requests (safe: idempotent by fingerprint; injected faults heal on
    resend) until it holds an ``ok`` answer for each, then the drill
    asserts:

    * **bit-identity** — every ``ok`` payload equals a direct
      :func:`execute_request` evaluation, canonical JSON, byte for byte;
      faults may delay or reroute an answer, never change it;
    * **accounting balance** — the terminal-outcome counters partition
      ``service.requests`` exactly (nothing double-counted, nothing
      lost), with cancellations and deadline rejections included;
    * **disk faults counted** — every injected disk fault hit the one
      disk tier and was counted as ``service.cache_errors``;
    * **clean drain** — stopping the server completes in-flight work and
      reports zero stranded futures.

    Deterministic per seed in every *decision* (which work item
    faults, which dispatch ordinals die, which connections drop);
    assertions are invariants, so thread interleaving cannot flake them.
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    if dup_factor < 1:
        raise ConfigError("dup_factor must be >= 1")
    # The mixed trace has only three items priced alone (two DES runs and
    # a fault schedule), so every one of them faults on its first try:
    # at a lower rate some seeds would never exercise that path.
    spec = ServiceChaosSpec(
        seed=seed,
        compute_error_rate=1.0,
        compute_delay_rate=1.0,
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
    )
    config = dataclasses.replace(config, cache_dir=tmp / "disk")

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

        # Every injected disk fault hit the one tier and was counted.
        disk_faults = faults.get("disk_error", 0)
        cache_errors = counters.get("service.cache_errors", 0)
        if not disk_faults or cache_errors != disk_faults:
            raise ConfigError(
                f"chaos drill (seed {seed}): {disk_faults} disk faults "
                f"injected, {cache_errors} counted as service.cache_errors"
            )

        # Clean drain: everything scattered, nothing stranded.
        if not drain.get("drained") or drain.get("stranded", 1) != 0:
            raise ConfigError(
                f"chaos drill (seed {seed}): dirty drain: {drain}"
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
