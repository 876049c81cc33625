"""The service's work scheduler: every request is a set of keyed work
items, and this module owns them from lookup to store.

:func:`work_items` decomposes a request.  ``simulate`` and ``sweep``
requests of every engine become their evaluation points
(:meth:`repro.api.SimulationRequest.points` /
:meth:`~repro.api.SweepRequest.points`), keyed by
:func:`repro.core.sweeps.cache_key` — the ``sweep-point`` key space
:func:`~repro.core.sweeps.run_sweep` reads and writes, so sweeps and the
service share warm cache entries.  A fault-schedule request is one item
keyed by the request fingerprint and priced whole by
:func:`~repro.service.server.execute_request`.  A profiled request
decomposes exactly like an unprofiled one: its items share the memo,
single-flight, the disk tier and kernel dispatches, and a dispatch runs
under a tracer when any of its items was started by a profiled request.

:class:`BatchScheduler` owns, for every item alike:

* **the memo** — a bounded in-process LRU of item payloads
  (``memo_entries``);
* **single-flight** — an item already queued or in flight under any
  request hands back its future instead of a second dispatch.  Waiter
  refcounts decide an item's fate: a request that is cancelled (its
  connection died) or whose ``deadline_ms`` expires releases its items;
  an item other requests still wait on keeps running; an item left with
  no waiters before it was priced is abandoned
  (``service.batch_point_abandoned``) — nobody wants the answer, so
  nobody pays for it;
* **dispatch** — work-conserving: analytical points are priced on the
  event-loop thread.  The points queued in one loop iteration leave
  together at its end as one
  :func:`~repro.core.analytical_batch.evaluate_points` pass that
  scatters on the spot: under the GIL an engine thread adds no
  parallelism to a kernel pass, only a hop each way.  A pass takes at
  most ``max_batch_points`` points, and one pass runs per loop
  iteration, so a larger queue goes in chunks with the loop's other
  work stepping between them.  Every other item
  dispatches at once as its own task on the engine pool, priced by
  :func:`~repro.core.sweeps.evaluate_point`, so a DES run never holds
  kernel batch-mates or the loop;
* **the disk tier** — a dispatch looks each item up in the
  ``cache_dir`` :class:`~repro.cache.ResultCache` (which several servers
  and sweeps may share) and writes what it priced there, on the thread
  that prices it;
* **error isolation** — a failing item fails only the requests that
  contain it, with the very exception its engine raised; a dispatch that
  dies wholesale fails each of its items with an ``internal error: ...``
  ``compute`` error.

An item's engine alone decides how it is priced: an analytical point by
the kernel, anything else on its own (``service.batch_point_kernel`` /
``service.batch_point_scalar`` count each).

A request is served by the costliest source among its items, in the
order of :data:`SOURCES`; responses are bit-identical to a direct
:func:`~repro.service.server.execute_request` evaluation.  Everything but
a lone item's pricing (``_compute_batch`` on an engine thread) runs on
the event-loop thread, so the tables need no locks; counters accrue in
the service registry (``service.batch_*``) and each dispatch's hermetic
engine manifest is merged in exactly once.
"""

from __future__ import annotations

import asyncio
import collections
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro import api, obs
from repro.cache import ResultCache, fingerprint
from repro.core import analytical_batch
from repro.core.sweeps import SweepPoint, cache_key, evaluate_point
from repro.errors import ConfigError
from repro.service.protocol import DeadlineExceeded

__all__ = [
    "SOURCES",
    "Backpressure",
    "BatchScheduler",
    "work_items",
]

#: Where an item's payload came from, cheapest first.
SOURCES = ("memo", "coalesced", "disk", "computed")


def work_items(request) -> Tuple[str, List[Tuple[str, Any]]]:
    """``(fingerprint, items)`` for one request; an item is ``(key, work)``.

    ``simulate``/``sweep`` requests become ``(cache_key(point), point)``
    pairs, and the fingerprint is derived from those keys exactly as the
    request's own ``fingerprint()`` derives it, so every key is hashed
    once.  A fault schedule is one ``(fingerprint, request)`` item.
    Raises what ``fingerprint()`` raises for a malformed request.
    """
    if not isinstance(request, (api.SimulationRequest, api.SweepRequest)):
        fp = request.fingerprint()
        return fp, [(fp, request)]
    points = request.points()
    keys = [cache_key(point) for point in points]
    body = keys[0] if request.kind == "simulate" else keys
    fp = fingerprint(api.REQUEST_SCHEMA, request.kind, body)
    return fp, list(zip(keys, points))


class Backpressure(ConfigError):
    """The request needs new work while ``max_pending`` requests already
    hold some; ``retry_after`` grows by 50 ms per pending request, since
    one thread, the event loop, prices the kernel work that makes up
    most of the backlog."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"{pending} computations pending (limit {limit}); retry later"
        )
        self.retry_after = round(0.05 * (1 + pending), 4)


class _ShuttingDown(ConfigError):
    """Queued items abandoned because the service is closing."""


class _Item:
    """One keyed unit of work, shared by every request that needs it."""

    __slots__ = ("key", "work", "profile", "future", "waiters", "job", "spans")

    def __init__(self, key: str, work, profile: bool, future) -> None:
        self.key = key
        self.work = work  # a SweepPoint, or a request priced whole
        self.profile = profile
        self.future = future  # resolves to (payload, tier)
        self.waiters = 0
        # A lone item's engine-pool job: cancellable until a thread picks
        # it up.
        self.job = None
        self.spans = None  # its dispatch's span summary, when traced


def _kernel_priced(work) -> bool:
    """Analytical points queue for a shared kernel pass; nothing else does."""
    return isinstance(work, SweepPoint) and work.engine == "analytical"


def _merge_spans(summaries: List[list], top: int = 10) -> list:
    """``meta.spans``: the dispatch summaries a profiled request started,
    merged by ``(track, name)`` — ``[name, count, total ms, track]``
    rows.  Wall-clock rows come first, then model tracks (simulated
    time, not comparable with wall time), each widest total first."""
    table: Dict[Tuple[str, str], list] = {}
    for summary in summaries:
        for track, name, count, total in summary:
            row = table.setdefault((track, name), [track, name, 0, 0.0])
            row[2] += count
            row[3] += total
    rows = sorted(
        table.values(),
        key=lambda row: (row[0] != obs.WALL_TRACK, -row[3], row[0], row[1]),
    )
    return [
        [name, count, round(total * 1e3, 6), track]
        for track, name, count, total in rows[:top]
    ]


class BatchScheduler:
    """Memo, single-flight, dispatch and the disk tier for the work
    items of one :class:`~repro.service.server.SimulationService`.

    All state is touched only on the service's event-loop thread; an
    engine thread runs nothing but a lone item's ``_compute_batch``.
    ``run_request`` is the sole entry: it serves a request's items from
    the memo, attaches to the ones in flight, starts the rest, and
    waits for them.
    """

    def __init__(self, service) -> None:
        self.service = service
        config = service.config
        self.max_points = config.max_batch_points
        self.pending = 0  # requests holding at least one item they started
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-engine"
        )
        self._disk = (
            ResultCache(config.cache_dir)
            if config.cache_dir is not None
            else None
        )
        if service._chaos is not None:
            # Fault-wrap the disk tier: chaos decides per operation
            # whether a deterministic OSError fires before the real I/O.
            self._disk = service._chaos.wrap_cache(self._disk)
        self._memo: "collections.OrderedDict[str, Dict]" = (
            collections.OrderedDict()
        )
        self._inflight: Dict[str, _Item] = {}
        self._queue: List[_Item] = []
        self._flush_soon = False  # a call_soon flush is pending
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatches: set = set()  # lone items' engine-pool tasks
        self._closed = False

    def __len__(self) -> int:
        """Analytical items queued for a kernel dispatch."""
        return len(self._queue)

    def busy(self) -> bool:
        """Whether any item is queued or any dispatch is in flight."""
        return bool(self._queue or self._dispatches)

    # -- the memo (event-loop thread only) -----------------------------------

    def _memo_get(self, key: str) -> Optional[Dict]:
        payload = self._memo.get(key)
        if payload is not None:
            self._memo.move_to_end(key)
        return payload

    def _memo_put(self, key: str, payload: Dict) -> None:
        limit = self.service.config.memo_entries
        if limit <= 0:
            return
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > limit:
            self._memo.popitem(last=False)

    # -- the request path (event-loop thread) --------------------------------

    async def run_request(
        self, items, deadline: Optional[float] = None, profile: bool = False
    ) -> Tuple[List[Dict], str, Optional[list]]:
        """Serve one request's items; returns ``(payloads, served_by,
        spans)``.

        ``profile`` traces the dispatches of the items this request
        starts; ``spans`` merges their summaries (see
        :func:`_merge_spans`), and is None for an unprofiled request or
        one that started nothing.

        Raises :class:`Backpressure` or
        :class:`~repro.service.protocol.DeadlineExceeded` before starting
        anything when the request needs new work it may not start; the
        exception of its first failing item (in item order); or
        ``DeadlineExceeded`` when its budget runs out before its items
        scatter.
        """
        if self._closed:
            raise _ShuttingDown("service shutting down")
        self._loop = loop = asyncio.get_running_loop()
        inc = self.service._inc
        payloads = [self._memo_get(key) for key, _work in items]
        if None not in payloads:
            inc("service.batch_point_hits", len(items))
            return payloads, "memo", None
        fresh = any(
            payload is None and key not in self._inflight
            for (key, _work), payload in zip(items, payloads)
        )
        if fresh:
            config = self.service.config
            if self.pending >= config.max_pending:
                raise Backpressure(self.pending, config.max_pending)
            if deadline is not None and loop.time() >= deadline:
                raise DeadlineExceeded("deadline_ms expired before dispatch")
            self.pending += 1
        held: List[Tuple[int, _Item, bool]] = []
        try:
            for i, (key, work) in enumerate(items):
                if payloads[i] is not None:
                    inc("service.batch_point_hits")
                    continue
                item = self._inflight.get(key)
                started = item is None
                if started:
                    item = self._start(key, work, profile)
                    inc("service.batch_point_queued")
                else:
                    inc("service.batch_point_stitched")
                item.waiters += 1
                held.append((i, item, started))
            # asyncio.wait never cancels what it waits on: a request that
            # times out or is cancelled leaves the shared futures alone,
            # and the waiter refcounts decide what happens to them.
            timeout = (
                None if deadline is None
                else max(0.0, deadline - loop.time())
            )
            _done, waiting = await asyncio.wait(
                {item.future for _i, item, _started in held}, timeout=timeout
            )
            if waiting:
                raise DeadlineExceeded(
                    "deadline_ms expired before the request's work scattered"
                )
        finally:
            for _i, item, _started in held:
                self._release(item)
            if fresh:
                self.pending -= 1
        sources = []
        summaries: List[list] = []
        for i, item, started in held:
            if item.future.exception() is not None:
                raise item.future.exception()
            payloads[i], tier = item.future.result()
            sources.append(tier if started else "coalesced")
            if (
                profile and started and item.spans is not None
                and not any(item.spans is seen for seen in summaries)
            ):
                summaries.append(item.spans)  # once per dispatch
        if deadline is not None and loop.time() >= deadline:
            # The work finished and feeds the memo and every other
            # waiter, but past the budget the honest answer to THIS
            # request is a rejection.
            raise DeadlineExceeded(
                "deadline_ms expired before the result scattered"
            )
        spans = _merge_spans(summaries) if summaries else None
        return payloads, max(sources, key=SOURCES.index), spans

    def _start(self, key: str, work, profile: bool) -> _Item:
        item = _Item(key, work, profile, self._loop.create_future())
        self._inflight[key] = item
        if _kernel_priced(work):
            self._queue.append(item)
            if not self._flush_soon:
                # Leave at the end of this loop iteration, with every
                # point queued in it.
                self._flush_soon = True
                self._loop.call_soon(self._flush)
        else:
            item.job = self._launch(item)
        return item

    def _release(self, item: _Item) -> None:
        """Drop one waiter reference; abandon an item whose last waiter
        left before it was priced: a kernel item still queued behind
        earlier chunks, or a lone item no engine thread has picked up."""
        item.waiters -= 1
        if item.waiters > 0 or item.future.done():
            return
        if item in self._queue:
            self._queue.remove(item)
        elif item.job is None or not item.job.cancel():
            return  # already computing: it runs on for the disk tier
        self._inflight.pop(item.key, None)
        item.future.cancel()
        self.service._inc("service.batch_point_abandoned")

    # -- dispatch ------------------------------------------------------------

    def _flush(self) -> None:
        """Price the oldest ``max_batch_points`` queued analytical items
        as one kernel dispatch on the loop thread, and scatter them.

        One dispatch per loop iteration: what is left queued goes in a
        later one, so other connections' frames, timers and waiters step
        between the chunks of an oversize request.
        """
        n, svc = self.max_points, self.service
        items, self._queue = self._queue[:n], self._queue[n:]
        if items:
            svc._inc("service.batch_dispatches")
            svc._inc("service.batch_points", len(items))
            svc.registry.observe("service.batch_occupancy", float(len(items)))
            try:
                result = self._compute_batch(items)
            except Exception as exc:
                result = exc
            self._scatter(items, result)
        if self._queue:
            # After the wake-ups this scatter scheduled.
            self._loop.call_soon(self._flush)
        else:
            self._flush_soon = False

    def _launch(self, item: _Item):
        """Submit a lone item to the engine pool; returns its job."""
        job = self._executor.submit(self._compute_batch, [item])
        task = self._loop.create_task(self._dispatch(item, job))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)
        return job

    async def _dispatch(self, item: _Item, job) -> None:
        """Await a lone item's engine-pool job, then scatter it."""
        try:
            result = await asyncio.wrap_future(job)
        except asyncio.CancelledError:
            if not job.cancelled():
                raise  # this task itself was cancelled
            return  # abandoned before an engine thread picked it up
        except Exception as exc:
            result = exc
        self._scatter([item], result)

    def _scatter(self, items: List[_Item], result) -> None:
        """Resolve a dispatch's items from its ``_compute_batch`` result,
        or fail each with an ``internal error`` when ``result`` is the
        exception the whole dispatch died of."""
        svc = self.service
        if isinstance(result, Exception):
            failure = ConfigError(
                f"internal error: {type(result).__name__}: {result}"
            )
            out = dict.fromkeys((item.key for item in items), failure)
            manifest, tally, spans = None, {}, None
            svc._inc("service.batch_dispatch_errors")
        else:
            out, manifest, tally, spans = result
        for name, value in tally.items():
            svc._inc(name, value)
        if manifest is not None:
            svc.registry.merge_manifest(manifest)
        for item in items:
            self._inflight.pop(item.key, None)
            if item.future.done():
                continue
            value = out[item.key]
            if isinstance(value, BaseException):
                item.future.set_exception(value)
                item.future.exception()  # consumed if every waiter left
            else:
                self._memo_put(item.key, value[0])
                item.spans = spans
                item.future.set_result(value)

    def _compute_batch(
        self, items: List[_Item]
    ) -> Tuple[Dict[str, Any], Dict, Dict[str, int], Optional[list]]:
        """One dispatch's body: disk tier, then pricing.

        A kernel dispatch prices its analytical points in one pass, on
        the loop thread; a lone item is priced on its own, on an engine
        thread.  Either way the pass runs under its own instruments
        only (:class:`repro.obs.isolated`), never a caller's.  Returns
        ``(per-key (payload, tier) or exception, engine manifest,
        counter tally, span summary when any item is profiled)`` — pure
        data; all bookkeeping happens in :meth:`_scatter`.
        """
        kernel = _kernel_priced(items[0].work)
        chaos = self.service._chaos
        if chaos is not None and kernel:
            # A dispatch-level chaos fault kills the whole kernel pass;
            # per-item faults are injected below.
            chaos.before_dispatch()
        tally: Dict[str, int] = collections.defaultdict(int)
        out: Dict[str, Any] = {}
        registry = obs.MetricsRegistry()
        tracer = obs.Tracer() if any(i.profile for i in items) else None
        with obs.isolated(tracer=tracer, metrics=registry):
            with obs.span(
                "service.batch_dispatch", cat="service", points=len(items)
            ):
                todo = []
                for item in items:
                    found = self._lookup(item.key, tally)
                    if found is None:
                        todo.append(item)
                    else:
                        out[item.key] = found, "disk"
                        tally["service.batch_point_disk"] += 1
                if kernel and todo:
                    # Single-flight gives every key one item, so no
                    # point repeats within a dispatch.
                    results, errors = analytical_batch.evaluate_points(
                        [item.work for item in todo]
                    )
                    for item, result, error in zip(todo, results, errors):
                        if error is None and chaos is not None:
                            error = chaos.point_error(item.key)
                        if error is not None:
                            out[item.key] = error
                            tally["service.batch_point_errors"] += 1
                        else:
                            out[item.key] = self._store(
                                item.key, result.to_dict(), tally
                            )
                            tally["service.batch_point_kernel"] += 1
                else:
                    # A lone non-analytical item, priced on its own.
                    for item in todo:
                        try:
                            if chaos is not None:
                                chaos.before_compute(item.key)
                            payload = self._price(item.work)
                        except Exception as exc:
                            out[item.key] = exc
                            tally["service.batch_point_errors"] += 1
                            continue
                        out[item.key] = self._store(item.key, payload, tally)
                        tally["service.batch_point_scalar"] += 1
        spans = None
        if tracer is not None:
            spans = [
                [s.track, s.name, s.count, s.total] for s in tracer.summarize()
            ]
        return out, registry.to_manifest(), dict(tally), spans

    @staticmethod
    def _price(work) -> Dict:
        if isinstance(work, SweepPoint):
            return evaluate_point(work).to_dict()
        from repro.service import server  # late: server imports this module

        return server.execute_request(work)

    # -- the disk tier (the pricing thread) ----------------------------------

    def _lookup(self, key: str, tally) -> Optional[Dict]:
        """The disk tier's payload for ``key``, or None."""
        if self._disk is None:
            return None
        try:
            return self._disk.get(key)
        except OSError:
            tally["service.cache_errors"] += 1
            return None

    def _store(self, key: str, payload: Dict, tally) -> Tuple[Dict, str]:
        """Write a priced payload through; returns ``(payload, tier)``."""
        if self._disk is not None:
            try:
                self._disk.put(key, payload)
            except OSError:
                tally["service.cache_errors"] += 1
        return payload, "computed"

    # -- shutdown ------------------------------------------------------------

    def _fail_queued(self) -> None:
        """Fail fast every item no thread has started pricing: the
        kernel queue and the lone items still waiting for an engine
        thread."""
        self._closed = True
        items, self._queue = self._queue, []
        items += [
            item for item in self._inflight.values()
            if item.job is not None and item.job.cancel()
        ]
        for item in items:
            self._inflight.pop(item.key, None)
            if not item.future.done():
                item.future.set_exception(
                    _ShuttingDown("service shutting down")
                )
                item.future.exception()

    def close(self) -> None:
        """Synchronous shutdown: fail queued items, wait for the engine
        work already running."""
        self._fail_queued()
        self._executor.shutdown(wait=True)

    async def aclose(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown.

        Running engine-pool dispatches scatter first (bounded by
        ``timeout`` when the caller's drain already gave up — a wedged
        engine must not wedge shutdown too); then the engine pool stops,
        on the loop's default executor (ours is being shut down).  A
        dispatch stores what it priced before it scatters, so nothing is
        left to flush.
        """
        self._fail_queued()
        if self._dispatches:
            await asyncio.wait(list(self._dispatches), timeout=timeout)
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown, timeout is None
        )
