"""Helpers shared by the benchmark's entry points.

Nothing here imports the program under test: statistics, the host-speed
probe and its quiescence guard, the in-memory span log and its self-time
arithmetic, peak-RSS readers and the run-environment record.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"
#: Scratch space for generated inputs and span dumps; removed after a run.
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("prep-image", "sweep-grid", "service-mixed")


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


class QuiescenceError(RuntimeError):
    """CPU time was spent outside the probe's thread during a probe."""


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``InsufficientSamples``) unless at least ``min_beyond``
    samples lie beyond the percentile's rank, so a reported tail always
    rests on ten or more observations.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; "
            f"need {min_beyond}"
        )
    return xs[rank - 1]


def highest_percentile(values: Sequence[float], qs=(99, 95, 90, 50)) -> Tuple[float, float]:
    """``(q, value)`` for the highest ``q`` in ``qs`` that ``values``
    supports with ten samples beyond it."""
    for q in qs:
        if len(values) >= min_samples_for(q):
            return q, percentile(values, q)
    raise InsufficientSamples(f"{len(values)} samples support no percentile")


def min_samples_for(q: float, min_beyond: int = 10) -> int:
    """The smallest sample count :func:`percentile` accepts for ``q``."""
    n = min_beyond
    while n - math.ceil(q / 100.0 * n) < min_beyond:
        n += 1
    return n


def windowed_percentile(values: Sequence[float], q: float) -> float:
    """Median over consecutive windows of each window's ``q``-th
    percentile, the windows as small as :func:`percentile` allows.  A stall
    of the shared host then moves one window, not the result."""
    n_win = len(values) // min_samples_for(q)
    if n_win < 1:
        raise InsufficientSamples(f"{len(values)} samples for p{q:g}")
    size = len(values) // n_win
    return statistics.median(
        percentile(values[k * size:(k + 1) * size], q) for k in range(n_win)
    )


def spread_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR as a share of the median, and max/min."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else float("nan"),
        "max_min": hi / lo if lo > 0 else float("nan"),
    }


# -- host-speed probe ---------------------------------------------------------

#: The probe's duration on an idle reference host, in milliseconds.  Timing
#: metrics are scaled by ``PROBE_NOMINAL_MS / probe_measured``.
PROBE_NOMINAL_MS = 5.0

_PROBE_DATA = np.random.default_rng(20201017).random(8192)


def _probe_work() -> float:
    """A fixed mix of interpreter and numpy work, like the program's."""
    acc = 0
    for i in range(30000):
        acc += i * i
    total = 0.0
    for _ in range(40):
        total += float(np.sort(_PROBE_DATA)[-1])
    return acc + total


def probe(
    work: Callable[[], object] = _probe_work,
    allowance_s: float = 0.001,
) -> float:
    """Run the probe once; its wall time in milliseconds.

    The quiescence guard compares the process's CPU time with the probe
    thread's: if other threads of this process burned more than
    ``allowance_s`` plus 5% of the probe's own CPU time while it ran,
    background work would be hiding in the measurement, and
    :class:`QuiescenceError` is raised.
    """
    p0, t0 = time.process_time(), time.thread_time()
    w0 = time.perf_counter()
    work()
    w1 = time.perf_counter()
    p1, t1 = time.process_time(), time.thread_time()
    own = t1 - t0
    other = (p1 - p0) - own
    if other > allowance_s + 0.05 * own:
        raise QuiescenceError(
            f"{other * 1e3:.2f} ms of CPU outside the probe thread during "
            f"a {own * 1e3:.2f} ms probe"
        )
    return (w1 - w0) * 1e3


class ProbeTrack:
    """Probes taken at quiescent points, and the scaling they imply."""

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.nominal_ms = PROBE_NOMINAL_MS
        self.times: List[float] = []
        self.ms: List[float] = []
        self._last = -math.inf

    def take(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= self.every_s:
            ms = probe()
            self.times.append(time.perf_counter())
            self.ms.append(ms)
            self._last = self.times[-1]

    def factors(self, at: Sequence[float]) -> np.ndarray:
        """``nominal / probe`` at each time in ``at`` (interpolated
        between the probes around it)."""
        if not self.ms:
            raise ValueError("no probe taken")
        local = np.interp(np.asarray(at), self.times, self.ms)
        return self.nominal_ms / local

    def scale_now(self, reps: int = 5) -> float:
        """``nominal / probe`` from ``reps`` probes taken now (median)."""
        for _ in range(reps):
            self.take(force=True)
        return self.nominal_ms / statistics.median(self.ms[-reps:])

    def summary(self) -> Dict[str, float]:
        return {
            "min": min(self.ms),
            "median": statistics.median(self.ms),
            "max": max(self.ms),
            "count": len(self.ms),
            "nominal": self.nominal_ms,
        }


# -- spans --------------------------------------------------------------------


class SpanLog:
    """Spans recorded by the benchmark's timing shims, kept in memory.

    A span is ``(id, parent, name, start, end, rid)``.  The parent is the
    innermost open span of the same thread or asyncio task (tracked with a
    context variable); ``rid`` is the request id where the wrapped call
    can see one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Tuple[int, int, str, float, float, object]] = []
        self._ids = itertools.count(1)
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.  ``on_exit(args, kwargs,
        result)`` runs after a successful call (counting hooks)."""
        log = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_shim(*args, **kwargs):
                sid = next(log._ids)
                parent = log._open.get()
                token = log._open.set(sid)
                start = log.clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = log.clock()
                    log._open.reset(token)
                    rid = rid_of(args, kwargs) if rid_of else None
                    log.spans.append((sid, parent, name, start, end, rid))
                if on_exit is not None:
                    on_exit(args, kwargs, result)
                return result

            return async_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            sid = next(log._ids)
            parent = log._open.get()
            token = log._open.set(sid)
            start = log.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = log.clock()
                log._open.reset(token)
                rid = rid_of(args, kwargs) if rid_of else None
                log.spans.append((sid, parent, name, start, end, rid))
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return shim

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as span ``name``; shims called inside it
        become its children."""
        sid = next(self._ids)
        parent = self._open.get()
        token = self._open.set(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.reset(token)
            self.spans.append((sid, parent, name, start, end, None))

    def to_json(self) -> List[list]:
        return [list(s) for s in self.spans]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Per span id: its duration minus the union of its children's
    intervals clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _rid in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for sid, _parent, _name, start, end, _rid in spans:
        kids = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - union_length(kids)
    return out


def layer_totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time (seconds)."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end, _rid in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return out


# -- processes and environment -----------------------------------------------

#: With two or more usable cores the program runs on the second of them
#: and a load generator on the first, so the two never compete for a core
#: and the probe can run on the program's core.
PROGRAM_CPU, LOADGEN_CPU = 1, 0


def pin(pid: int, slot: int) -> None:
    """Restrict ``pid`` (0: the calling thread) to the ``slot``-th core the
    process could use when this module was imported; a no-op with fewer
    than two such cores."""
    if len(_USABLE) > max(PROGRAM_CPU, LOADGEN_CPU):
        os.sched_setaffinity(pid, {_USABLE[slot]})


# Read once, before anything is pinned: pinning narrows the set.
_USABLE = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []



def own_peak_rss_mb() -> float:
    """Peak resident set of the calling process (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> Dict[str, str]:
    """Environment for the program's processes: sources on the path and
    single-threaded numeric libraries (the load is one process with at
    most two threads)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_json(cmd: List[str], timeout: float) -> Dict:
    """Run a helper process and parse the JSON object on its last line."""
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd[1:3])} failed ({proc.returncode}):\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> Dict[str, object]:
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def emit(result: Dict) -> None:
    """Print the result object as the final line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
