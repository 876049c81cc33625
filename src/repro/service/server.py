"""Simulation-as-a-service: the asyncio front end over :mod:`repro.api`.

The engines price a scenario in microseconds-to-milliseconds; what a
fleet of callers needs on top is *multiplexing*: many tenants, bursty
duplicate-heavy traffic, and strict bounds on concurrent work.  This
module is the broker in front of the work scheduler
(:mod:`repro.service.batch`):

* every request decomposes into keyed work items
  (:func:`~repro.service.batch.work_items`) — evaluation points for
  ``simulate``/``sweep``, profiled or not, one whole-request item for
  fault schedules — and the scheduler owns the memo, single-flight
  coalescing, the disk tier and dispatch for all of them; the broker
  only admits requests and assembles responses, bit-identical to
  :func:`execute_request`;
* **admission control** — a draining server answers
  ``rejected/draining``; per-tenant token buckets bound each tenant's
  request rate (``rejected/quota``); at most ``max_pending`` requests may
  hold work they started, beyond that a request needing new work gets
  ``rejected/backpressure`` with ``retry_after`` instead of building an
  unbounded queue (memo hits and coalesced requests never take a slot);
* **deadlines** — an optional ``deadline_ms`` envelope budget, enforced
  before dispatch and while the request's items are outstanding; an
  expired request answers ``rejected/deadline_exceeded`` and releases its
  items, which keep serving any other waiter;
* **disconnect cancellation** — a connection that reaches EOF with
  requests still in flight has those tasks cancelled; they release their
  items the same way;
* **graceful drain** — SIGTERM (or :meth:`SimulationServer.close`) stops
  admitting work (``rejected/draining``), completes in-flight requests
  under ``drain_timeout``, and reports drained stats (zero stranded
  futures on a clean drain);
* **chaos hooks** — a :class:`~repro.service.chaos.ChaosInjector` can be
  threaded through the service to inject compute faults and latency,
  kernel-dispatch faults and disk-tier I/O faults deterministically
  (``repro chaos --service`` drives the drill).

Counters for every outcome accrue in a :class:`~repro.obs.MetricsRegistry`
manifest (the ``stats`` op); every admitted request lands in exactly one
outcome counter.  Kernel dispatches run on the event-loop thread and
every other engine run on a thread pool — the engines are stateless and
reentrant (thread-local :mod:`repro.obs` sessions, canonical shared
memo objects), which is what makes that safe.
"""

from __future__ import annotations

import asyncio
import collections
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import api, obs
from repro.errors import ConfigError
from repro.service import protocol
from repro.service.batch import Backpressure, BatchScheduler, work_items

__all__ = [
    "ServiceConfig",
    "SimulationServer",
    "SimulationService",
    "ServerThread",
    "TokenBucket",
    "default_workers",
    "execute_request",
    "serve",
]


def execute_request(request) -> Dict:
    """Run one request through the facade; the response ``payload``.

    Module-level and engine-pure so tests and the CI smoke can compare a
    served response bit-for-bit against this direct evaluation.
    """
    if isinstance(request, api.SimulationRequest):
        result = api.simulate(request)
        return {
            "kind": request.kind,
            "engine": request.engine,
            "result": result.to_dict(),
        }
    if isinstance(request, api.SweepRequest):
        outcome = api.sweep(request)
        return {
            "kind": request.kind,
            "engine": request.engine,
            "points": [
                [p.workload.name, p.arch.name, p.scale]
                for p in outcome.points
            ],
            "results": [r.to_dict() for r in outcome.results],
        }
    if isinstance(request, api.FaultScheduleRequest):
        timeline = api.price_fault_schedule(request)
        return {
            "kind": request.kind,
            "engine": request.engine,
            "result": timeline.to_dict(),
        }
    raise ConfigError(f"unservable request type {type(request).__name__}")


def _assemble(request, items, payloads) -> Dict:
    """The response payload assembled from its items' payloads, shaped
    exactly like :func:`execute_request`."""
    if items[0][1] is request:  # priced whole
        return payloads[0]
    if request.kind == "simulate":
        return {
            "kind": request.kind,
            "engine": request.engine,
            "result": payloads[0],
        }
    return {
        "kind": request.kind,
        "engine": request.engine,
        "points": [
            [p.workload.name, p.arch.name, p.scale] for _key, p in items
        ],
        "results": payloads,
    }


#: The outcome counter of each ``served_by`` value.
_SERVED_COUNTERS = {
    "memo": "service.memo_hits",
    "coalesced": "service.coalesced",
    "disk": "service.disk_hits",
    "computed": "service.computed",
}


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity,
    refilled by the seconds ``clock`` reports (the service hands it its
    event loop's ``time``)."""

    __slots__ = ("rate", "burst", "tokens", "updated", "clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.clock = clock
        self.updated = clock()

    def take(self, n: float = 1.0) -> bool:
        if math.isinf(self.rate):
            return True
        now = self.clock()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, n: float = 1.0) -> float:
        if math.isinf(self.rate) or self.rate <= 0:
            return 0.0
        return max(0.0, (n - self.tokens) / self.rate)

    def idle(self) -> bool:
        """True when the bucket has refilled to capacity — dropping it
        loses no state, since a lazily recreated bucket starts full."""
        if math.isinf(self.rate):
            return True
        refill = (self.clock() - self.updated) * self.rate
        return self.tokens + refill >= self.burst


def default_workers() -> int:
    """Engine threads sized from the host: one per CPU this process may
    run on (its affinity mask, which ``taskset`` and cgroup pinning
    narrow; the host's CPU count where the OS has no such mask),
    floored at 2 (a DES run overlaps another's disk I/O even on tiny
    hosts), capped at 32 (the engines are GIL-bound Python; more
    threads only add contention).  The threads price only lone items —
    DES and flow points, fault schedules; kernel dispatches run on the
    event loop, disk-tier I/O included."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 2
    return min(32, max(2, cpus))


@dataclass(frozen=True)
class ServiceConfig:
    """Service policy: concurrency bounds, quotas, cache tiers, batching.

    Batching has no timer: a kernel dispatch carries the analytical
    points queued in one event-loop iteration, at most
    ``max_batch_points`` of them, and is priced on the loop thread, one
    dispatch per iteration.  ``max_workers`` sizes the engine pool that
    prices everything else.
    """

    max_workers: Optional[int] = None  # engine threads (None: per host cores)
    max_pending: int = 64        # requests holding work they started
    memo_entries: int = 4096     # in-process LRU of work-item payloads
    quota_rate: float = math.inf  # tokens/s granted per tenant
    quota_burst: float = 256.0   # tenant burst capacity
    max_tenants: int = 1024      # live token buckets (LRU-evicted beyond)
    cache_dir: Optional[Path] = None    # on-disk tier (may be shared)
    max_batch_points: int = 256  # points per kernel dispatch (at most)
    drain_timeout: float = 10.0  # graceful-drain budget (seconds)

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        if self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if self.memo_entries < 0:
            raise ConfigError("memo_entries must be >= 0")
        if self.quota_rate <= 0:
            raise ConfigError("quota_rate must be positive")
        if self.quota_burst < 1:
            raise ConfigError("quota_burst must be >= 1")
        if self.max_tenants < 1:
            raise ConfigError("max_tenants must be >= 1")
        if self.max_batch_points < 1:
            raise ConfigError("max_batch_points must be >= 1")
        if not (
            isinstance(self.drain_timeout, (int, float))
            and not isinstance(self.drain_timeout, bool)
            and math.isfinite(self.drain_timeout)
            and self.drain_timeout >= 0
        ):
            raise ConfigError("drain_timeout must be >= 0 and finite")

    @property
    def workers(self) -> int:
        """The resolved engine-thread count (override or host-sized)."""
        if self.max_workers is not None:
            return self.max_workers
        return default_workers()


class SimulationService:
    """The request broker: admission, quotas, response assembly.

    All bookkeeping (counters, buckets, the scheduler's tables) is
    touched only on the event-loop thread, which also prices kernel
    dispatches; lone items (DES and flow points, fault schedules) run on
    the scheduler's engine pool.  ``handle`` maps one request
    envelope to one response envelope and never raises.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        chaos=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = obs.MetricsRegistry()
        self._buckets: "collections.OrderedDict[str, TokenBucket]" = (
            collections.OrderedDict()
        )
        self._chaos = chaos
        self._batch = BatchScheduler(self)
        self._draining = False
        self.last_drain: Optional[Dict] = None

    # -- bookkeeping (event-loop thread only) --------------------------------

    def _inc(self, name: str, value: int = 1) -> None:
        self.registry.inc(name, value)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            if len(self._buckets) >= self.config.max_tenants:
                self._evict_bucket()
            bucket = TokenBucket(
                self.config.quota_rate,
                self.config.quota_burst,
                asyncio.get_running_loop().time,
            )
            self._buckets[tenant] = bucket
        else:
            self._buckets.move_to_end(tenant)
        return bucket

    def _evict_bucket(self) -> None:
        """Drop one tenant bucket so the table stays bounded.

        Tenant names are client-supplied strings, so the table must not
        grow with the name space.  Prefers an :meth:`~TokenBucket.idle`
        (fully refilled) bucket — dropping one loses no quota state —
        scanning from the least-recently-used end; if every tenant is
        mid-burst, the LRU one goes anyway (it regains its burst on
        return, a bounded generosity that beats unbounded memory)."""
        for tenant, bucket in self._buckets.items():  # LRU order
            if bucket.idle():
                del self._buckets[tenant]
                self._inc("service.tenants_evicted")
                return
        self._buckets.popitem(last=False)
        self._inc("service.tenants_evicted")

    def stats(self) -> Dict:
        """The ``stats`` op payload: counters + live state snapshot."""
        manifest = self.registry.to_manifest()
        batch = self._batch
        return {
            "kind": "stats",
            "protocol": protocol.PROTOCOL,
            "counters": manifest["counters"],
            "batch": self.registry.scoped("service.batch_"),
            "inflight": len(batch._inflight),
            "pending": batch.pending,
            "memo_entries": len(batch._memo),
            "batch_queued": len(batch),
            "tenants": len(self._buckets),
            "draining": self._draining,
            "config": {
                "max_workers": self.config.workers,
                "max_pending": self.config.max_pending,
                "memo_entries": self.config.memo_entries,
                "max_tenants": self.config.max_tenants,
                "max_batch_points": self.config.max_batch_points,
                "drain_timeout": self.config.drain_timeout,
                "quota_rate": (
                    None
                    if math.isinf(self.config.quota_rate)
                    else self.config.quota_rate
                ),
                "quota_burst": self.config.quota_burst,
                "cache_dir": (
                    str(self.config.cache_dir)
                    if self.config.cache_dir
                    else None
                ),
            },
        }

    # -- the request path (event-loop thread) --------------------------------

    async def handle(self, envelope: Any) -> Dict:
        """One envelope in, one envelope out; never raises."""
        rid = envelope.get("id") if isinstance(envelope, dict) else None
        try:
            if not isinstance(envelope, dict):
                raise protocol.ProtocolError("envelope must be a JSON object")
            op = envelope.get("op", "request")
            if op == "ping":
                return protocol.ok_response(
                    rid, {"kind": "pong", "protocol": protocol.PROTOCOL}
                )
            if op == "stats":
                return protocol.ok_response(rid, self.stats())
            if op != "request":
                raise protocol.ProtocolError(f"unknown op {op!r}")
            tenant = str(envelope.get("tenant") or "anon")
            budget_ms = protocol.parse_deadline_ms(envelope.get("deadline_ms"))
            request = api.request_from_dict(envelope.get("request"))
            profile = bool(envelope.get("profile", False))
            # Keying fully resolves the request, so malformed field
            # values that slipped past construction surface here —
            # still inside the bad-request envelope, never as a raise.
            fp, items = work_items(request)
        except ConfigError as exc:
            self._inc("service.bad_requests")
            return protocol.error_response(rid, "bad-request", str(exc))
        except (TypeError, ValueError) as exc:
            self._inc("service.bad_requests")
            return protocol.error_response(
                rid, "bad-request", f"{type(exc).__name__}: {exc}"
            )

        deadline = (
            None if budget_ms is None
            else asyncio.get_running_loop().time() + budget_ms / 1000.0
        )
        try:
            return await self._admit(
                rid, tenant, request, fp, items, profile, deadline
            )
        except asyncio.CancelledError:
            # The connection died mid-request (or shutdown cancelled the
            # frame task).  Counted so the accounting invariant —
            # requests == served + rejections + errors + cancellations —
            # still balances.
            self._inc("service.cancelled")
            raise

    async def _admit(
        self, rid, tenant, request, fp: str, items, profile: bool,
        deadline: Optional[float],
    ) -> Dict:
        self._inc("service.requests")
        self._inc(f"service.requests.{request.kind}")

        if self._draining:
            self._inc("service.rejected_draining")
            return protocol.rejected_response(
                rid,
                "draining",
                "server is draining; resend to another replica",
                1.0,
            )

        bucket = self._bucket(tenant)
        if not bucket.take():
            self._inc("service.rejected_quota")
            return protocol.rejected_response(
                rid,
                "quota",
                f"tenant {tenant!r} exceeded its request quota",
                round(bucket.retry_after(), 4),
            )

        try:
            payloads, served_by, spans = await self._batch.run_request(
                items, deadline, profile
            )
        except Backpressure as exc:
            self._inc("service.rejected_backpressure")
            return protocol.rejected_response(
                rid, "backpressure", str(exc), exc.retry_after
            )
        except protocol.DeadlineExceeded as exc:
            self._inc("service.deadline_exceeded")
            return protocol.rejected_response(
                rid, "deadline_exceeded", str(exc), 0.0
            )
        except ConfigError as exc:
            self._inc("service.errors")
            return protocol.error_response(rid, "compute", str(exc))
        except Exception as exc:  # engine bug: report, don't kill the server
            self._inc("service.errors")
            return protocol.error_response(
                rid, "internal", f"{type(exc).__name__}: {exc}"
            )
        self._inc(_SERVED_COUNTERS[served_by])
        meta = {
            "fingerprint": fp, "kind": request.kind, "served_by": served_by
        }
        if spans is not None:
            meta["spans"] = spans
        return protocol.ok_response(
            rid, _assemble(request, items, payloads), meta
        )

    # -- drain & shutdown ----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting work.

        New requests get ``rejected`` with code ``draining`` (admin ops
        still answer); everything already admitted runs to completion.
        """
        if self._draining:
            return
        self._draining = True
        self._inc("service.drain_started")

    async def drain(self, timeout: Optional[float] = None) -> Dict:
        """Drain in-flight work under a deadline; returns drain stats.

        ``drained`` is True when every admitted request scattered and
        every dispatch finished within ``timeout`` (default
        ``config.drain_timeout``).
        """
        budget = self.config.drain_timeout if timeout is None else timeout
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        while self._batch.pending or self._batch.busy():
            if loop.time() >= deadline:
                break
            await asyncio.sleep(0.005)
        return {
            "drained": not (self._batch.pending or self._batch.busy()),
            "timeout": budget,
            "pending": self._batch.pending,
        }

    def close(self) -> None:
        """Synchronous shutdown (tests, abrupt paths): fail queued items,
        wait for in-flight engine work."""
        self._batch.close()

    async def aclose(self) -> Dict:
        """Graceful shutdown: drain, scatter dispatches, stop the
        executor; returns the drain report (also kept as
        ``last_drain``)."""
        report = await self.drain()
        await self._batch.aclose(timeout=None if report["drained"] else 1.0)
        report["stranded"] = len(self._batch._inflight)
        if report["drained"] and report["stranded"] == 0:
            self._inc("service.drained_clean")
        self.last_drain = report
        return report


class SimulationServer:
    """The TCP front end: newline-delimited JSON over asyncio streams.

    Each connection may pipeline requests; every frame is handled as its
    own task, so responses interleave by completion order and slow
    computations never head-of-line-block cached ones.
    """

    def __init__(
        self,
        service: Optional[SimulationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or SimulationService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ConfigError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        return self.address

    async def _serve_connection(self, reader, writer) -> None:
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks = set()

        async def respond(response: Dict) -> None:
            data = protocol.encode_frame(response)
            async with write_lock:
                writer.write(data)
                await writer.drain()

        async def one(line: bytes) -> None:
            try:
                envelope = protocol.decode_frame(line)
            except protocol.ProtocolError as exc:
                await respond(
                    protocol.error_response(None, "bad-frame", str(exc))
                )
                return
            try:
                response = await self.service.handle(envelope)
            except Exception as exc:
                # handle() promises never to raise; if a hole slips
                # through anyway the client must still get an answer for
                # this id — silence here means a blocked client (the
                # gather() below swallows task exceptions).
                response = protocol.error_response(
                    envelope.get("id"),
                    "internal",
                    f"{type(exc).__name__}: {exc}",
                )
            await respond(response)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    await respond(
                        protocol.error_response(
                            None,
                            "frame-too-large",
                            f"frames are capped at "
                            f"{protocol.MAX_FRAME_BYTES} bytes",
                        )
                    )
                    break
                if not line:
                    break
                task = asyncio.create_task(one(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                # EOF with frames still in flight: the client went away,
                # nobody will read these answers.  Cancel them so they
                # release their work items — items nobody else waits on
                # are abandoned instead of computing into the void.  (A
                # client that read all its responses before closing has
                # no live tasks here — cancel() on done tasks is a
                # no-op.)
                for task in list(tasks):
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionError, asyncio.CancelledError):
            # Cancelled = server shutdown with the connection open; close
            # the stream and let the task end quietly.
            for task in tasks:
                task.cancel()
        finally:
            # Swallowing CancelledError here ends the task *normally*
            # when shutdown cancels it mid-close, so the streams
            # machinery's done-callback (which calls task.exception())
            # does not spray a traceback on the loop.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def close(self) -> Dict:
        """Graceful stop: close the listener, drain the service (new
        frames on live connections get ``rejected/draining``, admitted
        work completes and is answered), then tear down idle
        connections.  Returns the service's drain report."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        report = await self.service.aclose()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        return report


async def _run_server(
    config: Optional[ServiceConfig],
    host: str,
    port: int,
    ready=None,
    stop: Optional[asyncio.Event] = None,
    announce=None,
    chaos=None,
    install_signals: bool = False,
) -> None:
    server = SimulationServer(SimulationService(config, chaos=chaos), host, port)
    address = await server.start()
    if announce is not None:
        announce(address)
    if stop is None:
        stop = asyncio.Event()
    if install_signals:
        # SIGTERM/SIGINT trigger a graceful drain instead of an abrupt
        # exit.  Signal handlers only install on the main thread of the
        # main interpreter (the ``repro serve`` path); ServerThread uses
        # its stop event instead.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError, RuntimeError):
                pass
    if ready is not None:
        ready.server = server
        ready.address = address
        ready.event.set()
    try:
        await stop.wait()
    finally:
        await server.close()


def serve(
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 7543,
    announce=print,
) -> None:
    """Run a server until interrupted (the ``repro serve`` entry).

    SIGTERM (and Ctrl-C) drain gracefully: the listener closes, admitted
    work completes under the drain budget, and only then does the
    process exit.
    """
    try:
        asyncio.run(
            _run_server(
                config,
                host,
                port,
                announce=lambda addr: announce(
                    f"repro service listening on {addr[0]}:{addr[1]} "
                    f"({protocol.PROTOCOL})"
                ),
                install_signals=True,
            )
        )
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A live server on a background thread (tests, benchmarks, CLI).

    Usage::

        with ServerThread(ServiceConfig(max_workers=2)) as srv:
            client = ServiceClient(*srv.address)
            ...

    The service object is reachable as ``srv.service`` for stats
    inspection after the run.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos=None,
    ) -> None:
        self._config = config
        self._host = host
        self._port = port
        self._chaos = chaos
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None
        self.service: Optional[SimulationService] = None

    @property
    def drain_report(self) -> Optional[Dict]:
        """The last drain's stats (available after :meth:`stop`)."""
        return self.service.last_drain if self.service is not None else None

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()

        class _Ready:
            pass

        ready = _Ready()
        ready.event = threading.Event()

        async def main():
            await _run_server(
                self._config, self._host, self._port, ready=ready,
                stop=self._stop, chaos=self._chaos,
            )

        def _announce_started():
            self.address = ready.address
            self.service = ready.server.service
            self._ready.set()

        watcher = threading.Thread(
            target=lambda: (ready.event.wait(), _announce_started()),
            daemon=True,
        )
        watcher.start()
        try:
            loop.run_until_complete(main())
        except BaseException as exc:  # startup failure: surface in __enter__
            self._startup_error = exc
            self._ready.set()
        finally:
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ConfigError("service did not start within 30s")
        if self._startup_error is not None:
            raise ConfigError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A hung shutdown must surface — but not by masking an exception
        # already unwinding through the ``with`` block.
        self.stop(raise_on_hang=exc_type is None)

    def stop(self, raise_on_hang: bool = True) -> None:
        """Signal the server to drain and wait for the thread to exit.

        A thread that fails to join within 30s is a hung shutdown — a
        real bug (wedged executor work, a drain that never completes)
        that used to leak silently and deadlock *later* suites.  Now it
        raises (or, with ``raise_on_hang=False``, logs loudly to
        stderr so an in-flight exception is not masked)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=30)
        if thread.is_alive():
            message = (
                "ServerThread failed to shut down within 30s; the "
                "server thread is leaked (hung drain or wedged engine "
                "work)"
            )
            if raise_on_hang:
                raise ConfigError(message)
            print(f"ERROR: {message}", file=sys.stderr)
            return
        self._thread = None
