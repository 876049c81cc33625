"""Multi-process data-preparation engine with zero-copy handoff.

The functional mirror of the paper's preparation server: a pool of
prep workers (the "data preparation processors") pulls shard
descriptors, runs the batched pipeline (``decode_batch`` +
``apply_batch``), and hands finished batches to the trainer through
``multiprocessing.shared_memory`` ring-buffer slots — the consumer
reads numpy views straight out of shared memory, never copying a
sample.

Determinism contract
--------------------

Sample ``i``'s RNG stream is :func:`repro.dataprep.pipeline.sample_rng`
``(seed, i)`` — keyed to the *global* sample index, not to the shard,
the worker, or the batch.  Combined with the per-op batched/scalar
bit-identity contract, this makes the engine's output a pure function
of ``(loader, pipeline, seed, batch layout)``:

* parallel == serial bit-for-bit (``num_workers=0`` runs the identical
  code path in-process, with no shared memory);
* worker count, slot count and scheduling order never change a single
  output bit — only the wall-clock;
* **failures never change a bit either**: a retried, re-dispatched or
  quarantined shard re-derives the same per-sample streams, so crash,
  hang and lost-slot recovery all deliver the fault-free bits.

Fault tolerance
---------------

At the paper's scale (256 accelerators, racks of SSDs and prep
devices) per-device failures are routine, so the engine degrades
instead of dying.  The consumer loop doubles as a supervisor: it
*assigns* ``(shard, slot, attempt)`` tuples to workers one at a time
(so it always knows which worker holds which shard and which ring
slot), and on every poll it checks worker liveness, worker heartbeats,
and per-shard deadlines.  When :class:`ResilienceConfig` is set:

* a **crashed** worker's in-flight shard is re-dispatched (capped
  exponential backoff) and the worker is respawned;
* a **hung** worker — shard deadline missed or heartbeat gone stale —
  is terminated and treated like a crash.  A shard's deadline clock
  starts when its worker acknowledges pickup, not at dispatch, so a
  (re)spawned worker's start-up never counts against the shard it was
  handed; a worker that never starts is the heartbeat's to catch;
* a **lost completion** (slot written but never reported) hits the
  same deadline and the slot is reclaimed, because the supervisor owns
  slot accounting;
* a shard that defeats workers ``max_shard_retries`` times is
  **quarantined**: prepared in-process on the per-sample reference
  path, so one poison shard degrades throughput instead of killing the
  run;
* a **corrupt sample** (:class:`~repro.errors.CodecError`) first gets
  one clean re-read (transient bad reads heal bit-exactly), then is
  quarantined alone with a deterministic zero fill and reported, so
  one bad payload never fails its batch.

Without a :class:`ResilienceConfig` every resilience hook is a single
branch on ``None``: failures raise immediately (but a *partial* worker
crash is still detected immediately instead of livelocking — the
supervisor knows the dead worker held an in-flight shard).

Backpressure and prefetch
-------------------------

The ring has ``num_slots`` shared-memory slots (default two per worker:
double buffering — one slot being consumed while the next is filled).
The supervisor dispatches a shard only when a slot is free, and always
reserves the last free slot for the next shard the consumer needs, so
out-of-order completions can never park in every slot and deadlock the
reorder buffer.  A yielded batch's array is a **view into its slot**
and is only valid until the next iteration, when the slot is recycled;
callers that need the data longer must copy (the trainer consumes
batches immediately, so it never does).
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_readable

import numpy as np

from repro import obs
from repro.errors import (
    CodecError,
    DataprepError,
    PoisonShardError,
    PrepWorkerCrash,
    ReproError,
    ShardTimeoutError,
)
from repro.dataprep.chaos import ChaosSpec, wrap_loader
from repro.dataprep.pipeline import PrepPipeline, sample_rng

# Shards run through the compiled plan, which imports the codecs: load
# them with the engine, not inside its first batch.
from repro.dataprep import plan  # noqa: F401

#: Raw-shard loader: ``loader(start, count)`` returns the raw payloads
#: (bytes blobs or an ndarray stack) for global samples
#: ``start .. start+count``.  Must be picklable for worker mode.
ShardLoader = Callable[[int, int], Any]


@dataclass(frozen=True)
class ShardSpec:
    """One unit of prep work: ``count`` consecutive samples."""

    index: int
    start: int
    count: int


@dataclass(frozen=True)
class PreparedBatch:
    """A finished batch.  ``data`` is an ``N×…`` stack; in worker mode
    it is a zero-copy view into a shared-memory slot, valid until the
    next batch is pulled from the engine (quarantined shards own their
    array).  ``quarantined`` lists in-shard indices of samples that were
    corrupt and carry the deterministic fill instead of real data."""

    index: int
    start: int
    count: int
    data: np.ndarray
    quarantined: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/quarantine policy for worker-mode preparation.

    ``max_shard_retries`` re-dispatches per shard before it is
    quarantined to the in-process reference path; ``max_total_retries``
    is the global budget across all shards (exhausting it raises, so a
    systemically failing run terminates instead of thrashing).
    Backoff before re-dispatch is ``base · 2^(attempt-1)`` capped at
    ``backoff_cap_s``.  ``shard_timeout_s`` is the per-shard deadline;
    ``heartbeat_timeout_s`` declares a worker dead when its beat (every
    ``heartbeat_interval_s``) goes stale — 0 disables heartbeats; any
    other value must exceed the interval, or healthy workers read stale
    between beats.  A dead or hung worker is always respawned.
    """

    max_shard_retries: int = 3
    max_total_retries: int = 64
    shard_timeout_s: float = 30.0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_shard_retries < 0 or self.max_total_retries < 0:
            raise DataprepError("retry budgets must be >= 0")
        if self.shard_timeout_s <= 0:
            raise DataprepError("shard_timeout_s must be positive")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise DataprepError("backoff times must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise DataprepError("heartbeat_interval_s must be positive")
        if self.heartbeat_timeout_s < 0 or (
            0 < self.heartbeat_timeout_s <= self.heartbeat_interval_s
        ):
            raise DataprepError(
                "heartbeat_timeout_s must be 0 (disabled) or exceed "
                "heartbeat_interval_s"
            )


@dataclass
class ResilienceReport:
    """Exact recovery accounting for one engine run (mirrored onto the
    ``prep.*`` obs counters)."""

    retries: int = 0
    worker_crashes: int = 0
    deadline_expiries: int = 0
    respawns: int = 0
    shards_quarantined: int = 0
    samples_quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "deadline_expiries": self.deadline_expiries,
            "respawns": self.respawns,
            "shards_quarantined": self.shards_quarantined,
            "samples_quarantined": self.samples_quarantined,
        }


def make_shards(
    num_samples: int, batch_size: int, start: int = 0
) -> List[ShardSpec]:
    """Split ``num_samples`` samples into consecutive shards of
    ``batch_size`` (the final shard may be ragged)."""
    if num_samples <= 0:
        raise DataprepError("num_samples must be positive")
    if batch_size <= 0:
        raise DataprepError("batch_size must be positive")
    shards = []
    for index, shard_start in enumerate(range(0, num_samples, batch_size)):
        count = min(batch_size, num_samples - shard_start)
        shards.append(ShardSpec(index, start + shard_start, count))
    return shards


def prepare_shard(
    pipeline: PrepPipeline,
    loader: ShardLoader,
    seed: int,
    shard: ShardSpec,
) -> np.ndarray:
    """Load and prepare one shard on the calling process.

    This is the whole per-shard computation — the serial path runs it
    inline, workers run it remotely; both produce identical bits.

    Shards execute through the compiled-plan path of
    ``run_batch_vectorized``: the first shard a worker prepares compiles
    the pipeline into a :class:`~repro.dataprep.plan.PrepPlan` (reported
    as a ``prep.plan_compile`` span and metric via :mod:`repro.obs`);
    the plan is memoized per (pipeline fingerprint, geometry) through
    :mod:`repro.cache`, so every later shard of the same geometry reuses
    the compiled stages and pooled arena — one compile per worker
    process, not per shard.
    """
    raw = loader(shard.start, shard.count)
    rngs = [sample_rng(seed, shard.start + i) for i in range(shard.count)]
    with obs.span("prep.shard", cat="dataprep", shard=shard.index):
        out = pipeline.run_batch_vectorized(raw, rngs)
    if not isinstance(out, np.ndarray):
        raise DataprepError(
            f"{pipeline.name}: engine shards must prepare to a fixed-shape "
            f"stack, got ragged outputs for shard {shard.index}"
        )
    return out


def prepare_shard_salvaging(
    pipeline: PrepPipeline,
    loader: ShardLoader,
    seed: int,
    shard: ShardSpec,
    vectorized: bool = True,
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """:func:`prepare_shard` with corrupt-sample quarantine.

    On a :class:`~repro.errors.CodecError` from the batched path the
    payload is re-read once and retried (a transient bad read heals
    bit-exactly); if corruption persists, the shard falls back to the
    per-sample reference path and each corrupt sample is replaced by a
    deterministic zero fill.  Returns ``(stack, quarantined_indices)``
    — bit-identical to the fault-free path when nothing is corrupt.
    ``vectorized=False`` (the quarantine path) skips straight to the
    per-sample reference loop.
    """
    if vectorized:
        for _attempt in range(2):  # original read, then one clean re-read
            try:
                return prepare_shard(pipeline, loader, seed, shard), ()
            except CodecError:
                continue
    raw = loader(shard.start, shard.count)
    raw = list(raw) if not isinstance(raw, np.ndarray) else raw
    if len(raw) != shard.count:
        raise DataprepError(
            f"loader returned {len(raw)} payloads for shard {shard.index}, "
            f"expected {shard.count}"
        )
    outputs: List[Optional[np.ndarray]] = [None] * shard.count
    bad: List[int] = []
    for i in range(shard.count):
        rng = sample_rng(seed, shard.start + i)
        try:
            outputs[i] = pipeline.run(raw[i], rng)
        except CodecError:
            bad.append(i)
    if len(bad) == shard.count:
        raise PoisonShardError(
            f"every sample of shard {shard.index} is corrupt"
        )
    template = next(o for o in outputs if o is not None)
    if not isinstance(template, np.ndarray):
        raise DataprepError(
            f"{pipeline.name}: engine shards must prepare to a fixed-shape "
            f"stack, got ragged outputs for shard {shard.index}"
        )
    fill = np.zeros_like(template)
    stack = np.stack([o if o is not None else fill for o in outputs])
    return stack, tuple(bad)


def _heartbeat_loop(value: Any, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        value.value = time.monotonic()


def _worker_loop(
    worker_id: int,
    pipeline: PrepPipeline,
    loader: ShardLoader,
    seed: int,
    segment_names: Sequence[str],
    tasks: Any,
    results: Any,
    heartbeat: Any,
    heartbeat_interval: float,
    chaos: Optional[ChaosSpec],
    salvage: bool,
) -> None:
    stop = threading.Event()
    if heartbeat is not None:
        threading.Thread(
            target=_heartbeat_loop,
            args=(heartbeat, heartbeat_interval, stop),
            daemon=True,
        ).start()
    segments = [shared_memory.SharedMemory(name=n) for n in segment_names]
    try:
        while True:
            task = tasks.get()
            if task is None:
                return
            shard, slot, attempt = task
            # Pickup acknowledgement: the supervisor starts this
            # attempt's deadline clock now, not at dispatch.
            results.send(("started", worker_id, shard.index, attempt))
            try:
                if chaos is not None:
                    chaos.before_prepare(shard.index, attempt)
                if salvage:
                    out, quarantined = prepare_shard_salvaging(
                        pipeline, loader, seed, shard
                    )
                else:
                    out = prepare_shard(pipeline, loader, seed, shard)
                    quarantined = ()
                seg = segments[slot]
                if out.nbytes > seg.size:
                    raise DataprepError(
                        f"shard {shard.index} needs {out.nbytes} bytes but "
                        f"slots hold {seg.size}; raise sample_nbytes"
                    )
                dest = np.ndarray(out.shape, dtype=out.dtype, buffer=seg.buf)
                dest[...] = out  # the one batch-level copy into the ring
                if chaos is not None and chaos.drops_result(
                    shard.index, attempt
                ):
                    continue  # injected lost completion: the slot is stranded
                results.send(
                    (
                        "ok",
                        worker_id,
                        shard.index,
                        slot,
                        out.shape,
                        out.dtype.str,
                        quarantined,
                    )
                )
            except Exception as exc:
                # Attempt-scoped failures (I/O glitches, killed workers'
                # kin) are retryable; a ReproError that declares itself
                # non-retryable (bad config, poison shard) is not.
                retryable = not (
                    isinstance(exc, ReproError) and not exc.retryable
                )
                results.send(
                    (
                        "error",
                        worker_id,
                        shard.index,
                        slot,
                        traceback.format_exc(),
                        retryable,
                    )
                )
                # The shard failed; the worker itself is fine — keep
                # serving so one bad payload doesn't cost a process.
    finally:
        stop.set()
        for seg in segments:
            seg.close()


class _Worker:
    """Supervisor-side handle: process, private task queue, the read end
    of its private result pipe, heartbeat, and the single in-flight
    assignment ``(shard, slot, attempt, deadline)`` (None when idle; the
    deadline is None until the worker acknowledges pickup).

    Results travel over one pipe per worker, written synchronously: a
    shared ``multiprocessing.Queue`` serializes writers on a
    cross-process lock held by each writer's feeder thread, so a worker
    that dies mid-write (a hard crash) would leave it held and silence
    every other worker for good."""

    __slots__ = ("wid", "proc", "tasks", "results", "heartbeat", "assignment")

    def __init__(
        self, wid: int, proc: Any, tasks: Any, results: Any, heartbeat: Any
    ) -> None:
        self.wid = wid
        self.proc = proc
        self.tasks = tasks
        self.results = results
        self.heartbeat = heartbeat
        self.assignment: Optional[Tuple[ShardSpec, int, int, Optional[float]]] = None


class PrepEngine:
    """Batched, optionally multi-process preparation over a sample range.

    Each worker process (and the serial path) prepares shards through the
    compiled-plan fast path: the pipeline compiles once per worker on the
    first shard — emitting a ``prep.plan_compile`` span/metric — and the
    plan's pooled arena is reused for every shard after, so a
    steady-state batch allocates only the array its last stage writes
    the batch into (see :mod:`repro.dataprep.plan`).

    Parameters
    ----------
    pipeline, loader, num_samples, batch_size:
        What to prepare and in what shard layout.
    seed:
        Root of the per-sample RNG streams (see module docstring).
    num_workers:
        0 = serial in-process execution (no shared memory); N > 0 = a
        pool of N prep processes with shared-memory handoff.
    sample_nbytes:
        Upper bound on one *prepared* sample's bytes, used to size the
        ring slots.  Required in worker mode; derive it from
        ``pipeline.output_spec(...)`` when the input spec is known.
    num_slots:
        Ring size; default ``2 * num_workers`` (double buffering).
    resilience:
        A :class:`ResilienceConfig` enabling heartbeats, deadlines,
        retry/backoff, quarantine and corrupt-sample salvage.  ``None``
        (the default) keeps the fail-fast semantics — every hook is one
        branch, so the no-fault hot path is untouched.
    chaos:
        A :class:`~repro.dataprep.chaos.ChaosSpec` injecting
        deterministic faults (tests and the ``repro chaos`` drill);
        crash/hang/lost-result faults require worker mode, payload
        corruption also applies serially.
    """

    def __init__(
        self,
        pipeline: PrepPipeline,
        loader: ShardLoader,
        num_samples: int,
        batch_size: int,
        *,
        seed: int = 0,
        num_workers: int = 0,
        sample_nbytes: Optional[int] = None,
        num_slots: Optional[int] = None,
        start: int = 0,
        mp_context: Optional[str] = None,
        resilience: Optional[ResilienceConfig] = None,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        # Cleanup state first: __del__ calls close() even when the
        # validation below aborts construction.
        self._segments: List[shared_memory.SharedMemory] = []
        self._live: Dict[int, _Worker] = {}
        self._closed = False
        if num_workers < 0:
            raise DataprepError(f"num_workers must be >= 0: {num_workers}")
        if chaos is not None and num_workers == 0 and (
            chaos.crash or chaos.hang or chaos.lose_result
        ):
            raise DataprepError(
                "crash/hang/lost-result chaos needs worker mode; only "
                "payload corruption applies serially"
            )
        self.pipeline = pipeline
        self.loader = (
            loader if chaos is None else wrap_loader(loader, chaos, batch_size)
        )
        self.seed = seed
        self.num_workers = num_workers
        self.resilience = resilience
        self.chaos = chaos
        self.report = ResilienceReport()
        self.shards = make_shards(num_samples, batch_size, start=start)
        if num_workers > 0:
            if sample_nbytes is None or sample_nbytes <= 0:
                raise DataprepError(
                    "worker mode needs sample_nbytes > 0 to size the "
                    "shared-memory slots"
                )
            self.slot_bytes = int(sample_nbytes) * batch_size
            self.num_slots = (
                int(num_slots) if num_slots is not None else 2 * num_workers
            )
            if self.num_slots < 2:
                raise DataprepError("the ring needs at least 2 slots")
        else:
            self.slot_bytes = 0
            self.num_slots = 0
        self._mp_context = mp_context
        self._ctx: Optional[Any] = None
        self._wid_counter = itertools.count()
        self._retries_total = 0
        self._started = False

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "PrepEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    @property
    def segment_names(self) -> List[str]:
        """Names of the live shared-memory slots (for inspection)."""
        return [seg.name for seg in self._segments]

    def close(self) -> None:
        """Stop workers and release every shared-memory segment.

        Idempotent (safe to call repeatedly, including before
        :meth:`_start` and after a partial start failure), and the
        engine's only exit path: it runs on normal completion, on
        errors, and on worker crashes alike, so no segment or worker
        process outlives the engine.
        """
        if self._closed:
            return
        self._closed = True
        workers = list(self._live.values())
        self._live = {}
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - defensive
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        # Drop queue feeder threads before unlinking memory so close()
        # can never hang flushing to a dead consumer.
        for worker in workers:
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
            worker.results.close()
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass

    def _spawn_worker(self) -> _Worker:
        assert self._ctx is not None
        wid = next(self._wid_counter)
        tasks = self._ctx.Queue()
        results, results_writer = self._ctx.Pipe(duplex=False)
        heartbeat = None
        interval = 0.0
        if self.resilience is not None and self.resilience.heartbeat_timeout_s > 0:
            heartbeat = self._ctx.Value("d", time.monotonic(), lock=False)
            interval = self.resilience.heartbeat_interval_s
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                wid,
                self.pipeline,
                self.loader,
                self.seed,
                [seg.name for seg in self._segments],
                tasks,
                results_writer,
                heartbeat,
                interval,
                self.chaos,
                self.resilience is not None,
            ),
            daemon=True,
        )
        proc.start()
        # Only the worker writes: the pipe reads EOF once it is gone.
        results_writer.close()
        return _Worker(wid, proc, tasks, results, heartbeat)

    def _start(self) -> None:
        if self._started:
            raise DataprepError("a PrepEngine can only be iterated once")
        self._started = True
        if self.num_workers == 0:
            return
        try:
            self._ctx = multiprocessing.get_context(self._mp_context)
            # Append one by one: a failure partway must leave the
            # already-created segments where close() can unlink them.
            for _ in range(self.num_slots):
                self._segments.append(
                    shared_memory.SharedMemory(
                        create=True, size=self.slot_bytes
                    )
                )
            for _ in range(self.num_workers):
                worker = self._spawn_worker()
                self._live[worker.wid] = worker
        except BaseException:
            # A failure partway through startup must not leak segments
            # or zombie workers; close() releases whatever exists.
            self.close()
            raise

    # -- consumption --------------------------------------------------

    def batches(self) -> Iterator[PreparedBatch]:
        """Yield prepared batches in shard order (deterministic).

        In worker mode each batch's ``data`` is a zero-copy view into
        its ring slot; the slot is recycled when the next batch is
        requested.
        """
        self._start()
        try:
            if self.num_workers == 0:
                yield from self._serial_batches()
            else:
                yield from self._worker_batches()
        except BaseException:
            self.close()
            raise
        else:
            if self.num_workers > 0:
                self.close()

    def _serial_batches(self) -> Iterator[PreparedBatch]:
        for shard in self.shards:
            if self.resilience is not None:
                data, quarantined = prepare_shard_salvaging(
                    self.pipeline, self.loader, self.seed, shard
                )
                self._count_quarantined(quarantined)
            else:
                data = prepare_shard(
                    self.pipeline, self.loader, self.seed, shard
                )
                quarantined = ()
            obs.inc("prep.batches")
            obs.inc("prep.samples", shard.count)
            yield PreparedBatch(
                shard.index, shard.start, shard.count, data, quarantined
            )

    def _count_quarantined(self, quarantined: Sequence[int]) -> None:
        if quarantined:
            self.report.samples_quarantined += len(quarantined)
            obs.inc("prep.samples_quarantined", len(quarantined))

    # -- the supervisor -----------------------------------------------

    def _worker_batches(self) -> Iterator[PreparedBatch]:
        # (shard, attempt, eligible_at), kept sorted by shard index so
        # the consumer's next shard is always dispatched first.
        pending: List[Tuple[ShardSpec, int, float]] = [
            (shard, 0, 0.0) for shard in self.shards
        ]
        # Reorder buffer: index -> ("slot", slot, shape, dtype, quar)
        # for ring deliveries, ("data", array, quar) for quarantined
        # shards prepared in-process.
        done: Dict[int, Tuple] = {}
        free = list(range(self.num_slots))
        for shard in self.shards:
            while shard.index not in done:
                self._dispatch(pending, free, done, shard.index)
                msg = self._poll()
                if msg is not None:
                    self._handle_message(msg, pending, free, done)
                self._check_workers(pending, free, done)
            entry = done.pop(shard.index)
            if entry[0] == "slot":
                _, slot, shape, dtype, quarantined = entry
                data = np.ndarray(
                    shape, dtype=np.dtype(dtype),
                    buffer=self._segments[slot].buf,
                )
            else:
                _, data, quarantined = entry
                slot = None
            obs.inc("prep.batches")
            obs.inc("prep.samples", shard.count)
            yield PreparedBatch(
                shard.index, shard.start, shard.count, data, quarantined
            )
            if slot is not None:
                # The consumer has moved on; recycle the slot.
                free.append(slot)

    def _poll(self) -> Optional[Tuple]:
        readers = [worker.results for worker in self._live.values()]
        for conn in wait_readable(readers, timeout=0.05):
            try:
                return conn.recv()
            except (EOFError, OSError):
                continue  # the worker is gone; _check_workers reaps it
        return None

    def _dispatch(
        self,
        pending: List[Tuple[ShardSpec, int, float]],
        free: List[int],
        done: Dict[int, Tuple],
        lowest_index: int,
    ) -> None:
        if not pending:
            return
        if not self._live:
            # Total pool loss.  With resilience the run degrades to
            # in-process preparation; without it, it fails fast.
            if self.resilience is None:
                raise PrepWorkerCrash(
                    "all prep workers exited without delivering results"
                )
            while pending:
                shard, _, _ = pending.pop(0)
                self._quarantine(shard, done)
            return
        now = time.monotonic()
        lowest_covered = lowest_index in done or any(
            w.assignment is not None and w.assignment[0].index == lowest_index
            for w in self._live.values()
        )
        for worker in self._live.values():
            if not free or not pending:
                return
            if worker.assignment is not None:
                continue
            pick = None
            for i, (cand, _attempt, eligible) in enumerate(pending):
                if eligible > now:
                    continue  # backing off; later shards may still run
                if (
                    cand.index != lowest_index
                    and not lowest_covered
                    and len(free) <= 1
                ):
                    # Reserve the last slot for the shard the consumer
                    # is waiting on, or the reorder buffer can deadlock.
                    break
                pick = i
                break
            if pick is None:
                return
            shard, attempt, _ = pending.pop(pick)
            slot = free.pop()
            worker.assignment = (shard, slot, attempt, None)
            worker.tasks.put((shard, slot, attempt))
            if shard.index == lowest_index:
                lowest_covered = True

    def _handle_message(
        self,
        msg: Tuple,
        pending: List[Tuple[ShardSpec, int, float]],
        free: List[int],
        done: Dict[int, Tuple],
    ) -> None:
        kind, wid, index = msg[0], msg[1], msg[2]
        worker = self._live.get(wid)
        if (
            worker is None
            or worker.assignment is None
            or worker.assignment[0].index != index
        ):
            # Stale: the worker was replaced (its slot already
            # reclaimed) or the shard was already re-dispatched.
            return
        shard, slot, attempt, _ = worker.assignment
        if kind == "started":
            if msg[3] == attempt and self.resilience is not None:
                deadline = time.monotonic() + self.resilience.shard_timeout_s
                worker.assignment = (shard, slot, attempt, deadline)
            return
        worker.assignment = None
        if kind == "ok":
            _, _, _, slot_msg, shape, dtype, quarantined = msg
            done[index] = ("slot", slot_msg, shape, dtype, tuple(quarantined))
            self._count_quarantined(quarantined)
        else:
            _, _, _, _, detail, retryable = msg
            free.append(slot)
            error_cls = PrepWorkerCrash if retryable else DataprepError
            self._shard_failed(
                shard, attempt, pending, done,
                retryable=retryable,
                error=error_cls(
                    f"prep worker failed on shard {index}:\n{detail}"
                ),
                detail=detail,
            )

    def _check_workers(
        self,
        pending: List[Tuple[ShardSpec, int, float]],
        free: List[int],
        done: Dict[int, Tuple],
    ) -> None:
        res = self.resilience
        now = time.monotonic()
        for wid in list(self._live):
            worker = self._live[wid]
            if worker.proc.is_alive():
                expired = (
                    worker.assignment is not None
                    and worker.assignment[3] is not None
                    and now > worker.assignment[3]
                )
                stale = (
                    worker.heartbeat is not None
                    and now - worker.heartbeat.value > res.heartbeat_timeout_s
                )
                if not expired and not stale:
                    continue
                # Hung (deadline missed) or frozen (heartbeat stale):
                # a process cannot be preempted, so replace it.
                self.report.deadline_expiries += 1
                obs.inc("prep.deadline_expiries")
                error_cls = ShardTimeoutError
                detail = (
                    "shard deadline expired" if expired
                    else "worker heartbeat went stale"
                )
                worker.proc.terminate()
            else:
                self.report.worker_crashes += 1
                obs.inc("prep.worker_crashes")
                error_cls = PrepWorkerCrash
                detail = f"worker exited with code {worker.proc.exitcode}"
            assignment = worker.assignment
            worker.assignment = None
            del self._live[wid]
            worker.proc.join(timeout=5.0)
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
            worker.results.close()
            if res is not None:
                replacement = self._spawn_worker()
                self._live[replacement.wid] = replacement
                self.report.respawns += 1
                obs.inc("prep.respawns")
            if assignment is not None:
                shard, slot, attempt, _ = assignment
                free.append(slot)
                self._shard_failed(
                    shard, attempt, pending, done,
                    retryable=True,
                    error=error_cls(
                        f"shard {shard.index} lost on worker {wid}: {detail}"
                    ),
                    detail=detail,
                )

    def _shard_failed(
        self,
        shard: ShardSpec,
        attempt: int,
        pending: List[Tuple[ShardSpec, int, float]],
        done: Dict[int, Tuple],
        *,
        retryable: bool,
        error: DataprepError,
        detail: str,
    ) -> None:
        res = self.resilience
        if res is None or not retryable:
            raise error
        if attempt + 1 > res.max_shard_retries:
            # This shard has defeated the worker pool repeatedly:
            # stop spending workers on it and prepare it in-process.
            self._quarantine(shard, done)
            return
        self._retries_total += 1
        if self._retries_total > res.max_total_retries:
            raise type(error)(
                f"retry budget exhausted ({res.max_total_retries}) at "
                f"shard {shard.index}: {detail}"
            )
        self.report.retries += 1
        obs.inc("prep.retries")
        delay = min(
            res.backoff_base_s * (2.0 ** attempt), res.backoff_cap_s
        )
        entry = (shard, attempt + 1, time.monotonic() + delay)
        bisect.insort(pending, entry, key=lambda e: e[0].index)

    def _quarantine(self, shard: ShardSpec, done: Dict[int, Tuple]) -> None:
        """Prepare a poison shard in-process on the per-sample reference
        path (fault injection cannot follow it here: crash/hang faults
        are worker-side)."""
        self.report.shards_quarantined += 1
        obs.inc("prep.shards_quarantined")
        try:
            data, quarantined = prepare_shard_salvaging(
                self.pipeline, self.loader, self.seed, shard,
                vectorized=False,
            )
        except ReproError:
            raise
        except Exception as exc:
            raise PoisonShardError(
                f"shard {shard.index} failed in-process after exhausting "
                f"its worker retries: {exc}"
            ) from exc
        self._count_quarantined(quarantined)
        done[shard.index] = ("data", data, quarantined)


def run_engine(
    pipeline: PrepPipeline,
    loader: ShardLoader,
    num_samples: int,
    batch_size: int,
    **kwargs: Any,
) -> List[np.ndarray]:
    """Prepare everything and return owned per-batch arrays (copies of
    the ring views — a convenience for tests and benchmarks; streaming
    consumers should iterate :meth:`PrepEngine.batches` instead)."""
    with PrepEngine(
        pipeline, loader, num_samples, batch_size, **kwargs
    ) as engine:
        return [batch.data.copy() for batch in engine.batches()]
