"""``repro.obs`` — the simulation observability layer.

One subsystem, three faces:

* **tracing** — :class:`Tracer` records wall-clock spans around engine
  phases and *model-time* spans on simulated timelines (DES stations,
  fluid PCIe transfers, the analytical iteration decomposition), and
  exports Chrome ``trace_event`` JSON (``repro trace``).
* **metrics** — :class:`MetricsRegistry` aggregates counters and
  histograms of model quantities into a deterministic run manifest
  (``--metrics``, merged across sweep workers).
* **profiling hooks** — :func:`profiled` and the module-level
  :func:`span`/:func:`inc`/:func:`observe` helpers sit in the hot paths
  of every engine, the cache, the prep-pool and the sweep engine.

The whole layer is **zero-overhead when disabled**: nothing is active
unless a :func:`session` installs a tracer and/or registry, and every
helper's disabled path is a single thread-local load and branch — no
allocation, no clock read (a test pins the no-op behaviour).  Sessions
are **per-thread**, and :class:`isolated` shuts the caller's instruments
out of a run: the service layer prices work on its event-loop thread
and on a thread pool, each dispatch under its own hermetic instruments.

Usage::

    from repro import obs

    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    with obs.session(tracer=tracer, metrics=metrics):
        result = api.simulate("Resnet-50", "trainbox", 256)
    tracer.write_chrome("trace.json")
    manifest = metrics.to_manifest()
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Optional

from repro.obs.metrics import (
    MANIFEST_SCHEMA,
    Histogram,
    MetricsRegistry,
    load_manifest,
    validate_manifest,
)
from repro.obs.tracer import (
    ITERATION_CATEGORY,
    MODEL_TRACK,
    WALL_TRACK,
    EventRecord,
    SpanRecord,
    SpanSummary,
    Tracer,
    steady_iteration_time,
)

__all__ = [
    "ITERATION_CATEGORY",
    "MANIFEST_SCHEMA",
    "MODEL_TRACK",
    "WALL_TRACK",
    "EventRecord",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "SpanSummary",
    "Tracer",
    "current_metrics",
    "current_tracer",
    "inc",
    "instant",
    "isolated",
    "load_manifest",
    "model_span",
    "observe",
    "profiled",
    "session",
    "span",
    "steady_iteration_time",
    "validate_manifest",
]

# Active instruments, per thread.  Thread-local (not module-global): the
# service layer (:mod:`repro.service`) runs concurrent requests on a
# thread pool, each under its own hermetic session, so one request's
# instruments must never observe another's engine run.  Single-threaded
# callers see exactly the old behaviour, and sweep workers are separate
# processes that start with both disabled.
_STATE = threading.local()


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def current_tracer() -> Optional[Tracer]:
    return getattr(_STATE, "tracer", None)


def current_metrics() -> Optional[MetricsRegistry]:
    return getattr(_STATE, "metrics", None)


class session:
    """Context manager installing instruments for the enclosed run.

    ``None`` leaves the corresponding instrument unchanged, so nested
    sessions compose (e.g. the CLI installs a tracer, the sweep engine a
    per-point registry).  On exit the previous instruments are restored.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._tracer = tracer
        self._metrics = metrics
        self._saved = (None, None)

    def __enter__(self) -> "session":
        self._saved = (current_tracer(), current_metrics())
        if self._tracer is not None:
            _STATE.tracer = self._tracer
        if self._metrics is not None:
            _STATE.metrics = self._metrics
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.tracer, _STATE.metrics = self._saved


class isolated(session):
    """A :class:`session` that installs exactly its instruments: ``None``
    disables one instead of leaving the caller's in place.  For work run
    on a thread whose caller may hold instruments of its own (the
    service's event loop), so none of the work reaches them."""

    def __enter__(self) -> "isolated":
        self._saved = (current_tracer(), current_metrics())
        _STATE.tracer, _STATE.metrics = self._tracer, self._metrics
        return self


def span(name: str, cat: str = "span", **args: Any):
    """A wall span on the active tracer, or a shared no-op when disabled."""
    tracer = getattr(_STATE, "tracer", None)
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat=cat, **args)


def model_span(name: str, start: float, end: float, **kwargs: Any) -> None:
    """Record a simulated-time span when tracing is active."""
    tracer = getattr(_STATE, "tracer", None)
    if tracer is not None:
        tracer.add_model_span(name, start, end, **kwargs)


def instant(name: str, cat: str = "event", **args: Any) -> None:
    """Record an instant event when tracing is active."""
    tracer = getattr(_STATE, "tracer", None)
    if tracer is not None:
        tracer.instant(name, cat=cat, **args)


def inc(name: str, value: int = 1) -> None:
    """Bump a counter when metrics are active."""
    metrics = getattr(_STATE, "metrics", None)
    if metrics is not None:
        metrics.inc(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample when metrics are active."""
    metrics = getattr(_STATE, "metrics", None)
    if metrics is not None:
        metrics.observe(name, value)


def profiled(name: Optional[str] = None, cat: str = "profile"):
    """Decorator tracing calls of a hot-path function as wall spans.

    Disabled sessions pay one global load and branch, then call the
    function directly — timings go to the tracer only (never the metrics
    registry, whose manifests must stay deterministic across runs).
    """

    def decorate(fn):
        label = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = getattr(_STATE, "tracer", None)
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label, cat=cat):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
