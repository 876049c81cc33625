"""The supported public entry surface: one call, any engine.

Historically each engine had its own entrypoint with its own signature
(:func:`repro.core.analytical.simulate`,
:func:`repro.core.des.simulate_des`, and the fluid PCIe layer had none
at all).  This module puts a single facade in front of all of them::

    from repro import api

    result = api.simulate("Resnet-50", "trainbox", 256)           # analytical
    des    = api.simulate("Resnet-50", "trainbox", 256, engine="des")
    flow   = api.simulate("Resnet-50", "trainbox", 16, engine="flow")

Every engine returns a :class:`~repro.core.results.SimulationOutcome`
(same fields, same derived properties), and the facade threads the
observability layer (``trace=``, ``metrics=``) and the persistent result
cache (``cache=``) uniformly — callers never touch three divergent
signatures again.

Every point, whatever its engine (``analytical``, ``des`` or ``flow``),
is evaluated by :func:`repro.core.sweeps.evaluate_point` — the one
dispatch from a point to its engine, shared with sweeps, the service
and fault-schedule windows.

Scenarios also exist as **versioned request objects** —
:class:`SimulationRequest`, :class:`SweepRequest` and
:class:`FaultScheduleRequest` (schema tag ``repro-request/1``) — frozen,
JSON-round-trippable, with a canonical content-hash ``fingerprint()``.
They are the wire schema of :mod:`repro.service`, and every facade entry
point accepts one in place of the legacy arguments::

    req = api.SimulationRequest("Resnet-50", "trainbox", 256, engine="des")
    result = api.simulate(req)          # same point, same result
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Union

from repro import obs
from repro.cache import ResultCache, fingerprint as _fingerprint
from repro.core.config import ArchitectureConfig, HardwareConfig, PrepDevice
# Unused here; perfbench/shims.py (install_core) patches api.simulate_des.
from repro.core.des import simulate_des  # noqa: F401
from repro.core.faults import FaultEvent, FaultSchedule, price_schedule
from repro.core.results import SimulationOutcome
from repro.core.server import build_server_cached
from repro.core.sweeps import (
    SweepPoint,
    SweepSpec,
    cache_key,
    evaluate_point,
    run_sweep,
    _result_from_dict,
)
from repro.errors import ConfigError
from repro.workloads.registry import Workload, get_workload

__all__ = [
    "ARCHS",
    "ENGINE_NAMES",
    "FaultScheduleRequest",
    "REQUEST_SCHEMA",
    "SimulationRequest",
    "SweepRequest",
    "arch_alias",
    "price_fault_schedule",
    "request_from_dict",
    "resolve_arch",
    "resolve_workload",
    "simulate",
    "sweep",
    "trace_iteration_time",
]

#: The architecture registry: every short alias accepted anywhere the
#: facade, the CLI or the wire schema takes an architecture, mapped to
#: one shared frozen config.  Sharing the instance lets the identity
#: memo behind :func:`repro.cache.fingerprint` hit on every request.
ARCHS: Mapping[str, ArchitectureConfig] = MappingProxyType({
    "baseline": ArchitectureConfig.baseline(),
    "acc": ArchitectureConfig.baseline_acc(),
    "acc-gpu": ArchitectureConfig.baseline_acc(PrepDevice.GPU),
    "p2p": ArchitectureConfig.baseline_acc_p2p(),
    "gen4": ArchitectureConfig.baseline_acc_p2p_gen4(),
    "trainbox": ArchitectureConfig.trainbox(),
    "trainbox-no-pool": ArchitectureConfig.trainbox(prep_pool=False),
})

#: Reverse lookup by value (configs are frozen, so hashable).
_ALIAS_OF = {config: alias for alias, config in ARCHS.items()}

#: Engine names the facade accepts.
ENGINE_NAMES = ("analytical", "des", "flow")


def _check_engine(name: str) -> None:
    if name not in ENGINE_NAMES:
        raise ConfigError(
            f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
        )


def resolve_workload(workload: Union[str, Workload]) -> Workload:
    """A Table I workload, by name or already-resolved."""
    if isinstance(workload, Workload):
        return workload
    return get_workload(workload)


def resolve_arch(arch: Union[str, ArchitectureConfig]) -> ArchitectureConfig:
    """An architecture config, by alias or already-resolved."""
    if isinstance(arch, ArchitectureConfig):
        return arch
    try:
        return ARCHS[arch]
    except KeyError:
        raise ConfigError(
            f"unknown architecture {arch!r}; choose from {sorted(ARCHS)}"
        ) from None


# -- versioned request objects (the service wire schema) ---------------------

#: Version tag stamped into every serialized request.  Bump when the
#: request schema changes incompatibly; :func:`request_from_dict`
#: rejects any other tag.
REQUEST_SCHEMA = "repro-request/1"


def arch_alias(arch: Union[str, ArchitectureConfig]) -> str:
    """The canonical :data:`ARCHS` alias for an architecture.

    Requests are wire objects, so they reference architectures by alias
    rather than by value; a config that no alias reproduces is not
    wire-representable and raises :class:`ConfigError`.
    """
    if isinstance(arch, str):
        resolve_arch(arch)  # validate, canonical error
        return arch
    try:
        return _ALIAS_OF[arch]
    except KeyError:
        raise ConfigError(
            f"architecture {arch.name!r} matches no registered alias; "
            f"requests reference architectures by alias ({sorted(ARCHS)})"
        ) from None


def _workload_name(workload: Union[str, Workload]) -> str:
    if isinstance(workload, Workload):
        return workload.name
    get_workload(workload)  # validate, canonical error
    return workload


class _RequestBase:
    """Shared wire behaviour of the three request kinds.

    Subclasses are frozen dataclasses whose fields are all
    JSON-representable (strings, numbers, tuples); ``to_dict`` /
    ``from_dict`` round-trip them under the :data:`REQUEST_SCHEMA`
    version tag, and ``fingerprint`` is a canonical content hash built
    from the same :mod:`repro.cache` fingerprints the result cache keys
    on — two requests that denote the same computation hash identically
    whatever dict ordering or process produced them.
    """

    kind: ClassVar[str]

    def to_dict(self) -> Dict:
        body = {"v": REQUEST_SCHEMA, "kind": self.kind}
        for f in fields(self):
            body[f.name] = getattr(self, f.name)
        return body

    @classmethod
    def from_dict(cls, data: Dict) -> "_RequestBase":
        if not isinstance(data, dict):
            raise ConfigError(f"request must be a dict, got {type(data).__name__}")
        version = data.get("v")
        if version != REQUEST_SCHEMA:
            raise ConfigError(
                f"unsupported request schema {version!r}; this build "
                f"speaks {REQUEST_SCHEMA}"
            )
        kind = data.get("kind")
        if kind != cls.kind:
            raise ConfigError(
                f"request kind {kind!r} does not match {cls.kind!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known - {"v", "kind"}
        if unknown:
            raise ConfigError(
                f"unknown {cls.kind} request fields: {sorted(unknown)}"
            )
        kwargs = {k: data[k] for k in known & set(data)}
        try:
            return cls(**kwargs)
        except TypeError as exc:  # e.g. a missing required field
            raise ConfigError(f"bad {cls.kind} request: {exc}") from None


def _as_tuple(value, caster) -> tuple:
    if isinstance(value, (str, bytes)):
        raise ConfigError(f"expected a sequence, got {value!r}")
    try:
        return tuple(caster(v) for v in value)
    except TypeError:
        raise ConfigError(f"expected a sequence, got {value!r}") from None


def _positive_int(name: str, value, optional: bool = False):
    """Wire-field validator: a positive JSON integer (bools excluded).

    Requests cross a trust boundary, so field types are checked at
    construction — a bad value must surface as :class:`ConfigError`
    (the service's ``bad-request``), never as a ``TypeError`` deep in
    ``fingerprint()`` or an engine.
    """
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _positive_real(name: str, value, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SimulationRequest(_RequestBase):
    """One ``workload × arch × scale`` scenario, as a wire object.

    ``workload`` is a Table I name and ``arch`` an
    :data:`ARCHS` alias — requests denote configurations by
    name, never by value, so any process deserializing one resolves the
    identical scenario.
    """

    workload: str
    arch: str
    scale: int
    engine: str = "analytical"
    batch_size: Optional[int] = None
    pool_size: Optional[int] = None
    accelerator: str = "tpu"
    fabric_bandwidth: Optional[float] = None
    des_iterations: int = 60
    des_buffer_batches: int = 4

    kind: ClassVar[str] = "simulate"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _workload_name(self.workload))
        object.__setattr__(self, "arch", arch_alias(self.arch))
        _check_engine(self.engine)
        _positive_int("scale", self.scale)
        _positive_int("batch_size", self.batch_size, optional=True)
        _positive_int("pool_size", self.pool_size, optional=True)
        _positive_real("fabric_bandwidth", self.fabric_bandwidth, optional=True)
        _positive_int("des_iterations", self.des_iterations)
        _positive_int("des_buffer_batches", self.des_buffer_batches)

    def resolve(self) -> SweepPoint:
        """The fully-resolved grid point this request denotes."""
        return SweepPoint(
            workload=resolve_workload(self.workload),
            arch=resolve_arch(self.arch),
            scale=self.scale,
            engine=self.engine,
            batch_size=self.batch_size,
            pool_size=self.pool_size,
            accelerator=self.accelerator,
            fabric_bandwidth=self.fabric_bandwidth,
            des_iterations=self.des_iterations,
            des_buffer_batches=self.des_buffer_batches,
        )

    def points(self) -> list:
        """The evaluation points this request decomposes into (the
        service's cross-request batcher stitches these into shared
        kernel dispatches)."""
        return [self.resolve()]

    def fingerprint(self) -> str:
        return _fingerprint(REQUEST_SCHEMA, self.kind, cache_key(self.resolve()))


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """A whole grid (workloads × archs × scales) as one wire object."""

    workloads: Tuple[str, ...]
    archs: Tuple[str, ...]
    scales: Tuple[int, ...]
    engine: str = "analytical"
    batch_size: Optional[int] = None
    pool_size: Optional[int] = None
    accelerator: str = "tpu"
    fabric_bandwidth: Optional[float] = None
    des_iterations: int = 60
    des_buffer_batches: int = 4

    kind: ClassVar[str] = "sweep"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workloads", _as_tuple(self.workloads, _workload_name)
        )
        object.__setattr__(self, "archs", _as_tuple(self.archs, arch_alias))
        object.__setattr__(
            self,
            "scales",
            _as_tuple(self.scales, lambda s: _positive_int("scale", s)),
        )
        if not self.workloads or not self.archs or not self.scales:
            raise ConfigError("sweep request axes must be non-empty")
        _check_engine(self.engine)
        _positive_int("batch_size", self.batch_size, optional=True)
        _positive_int("pool_size", self.pool_size, optional=True)
        _positive_real("fabric_bandwidth", self.fabric_bandwidth, optional=True)
        _positive_int("des_iterations", self.des_iterations)
        _positive_int("des_buffer_batches", self.des_buffer_batches)

    def to_dict(self) -> Dict:
        body = super().to_dict()
        body["workloads"] = list(self.workloads)
        body["archs"] = list(self.archs)
        body["scales"] = list(self.scales)
        return body

    def resolve(self) -> SweepSpec:
        return SweepSpec(
            workloads=tuple(resolve_workload(w) for w in self.workloads),
            archs=tuple(resolve_arch(a) for a in self.archs),
            scales=self.scales,
            engine=self.engine,
            batch_size=self.batch_size,
            pool_size=self.pool_size,
            accelerator=self.accelerator,
            fabric_bandwidth=self.fabric_bandwidth,
            des_iterations=self.des_iterations,
            des_buffer_batches=self.des_buffer_batches,
        )

    def points(self) -> list:
        """The grid's evaluation points, in the deterministic
        workload-major order the response's ``results`` list follows."""
        return self.resolve().points()

    def fingerprint(self) -> str:
        # Reuses the per-point result-cache keys, so two sweep requests
        # coalesce exactly when they denote the same point set.
        keys = [cache_key(p) for p in self.points()]
        return _fingerprint(REQUEST_SCHEMA, self.kind, keys)


@dataclass(frozen=True)
class FaultScheduleRequest(_RequestBase):
    """A fault-schedule pricing run as a wire object.

    ``events`` are ``(device_id, fail_time, recover_time)`` triples;
    ``recover_time`` ``None`` means the device never comes back (the
    JSON-safe spelling of ``inf``).
    """

    workload: str
    arch: str
    scale: int
    events: Tuple[Tuple[str, float, Optional[float]], ...]
    horizon: float
    engine: str = "analytical"
    batch_size: Optional[int] = None
    pool_size: Optional[int] = None
    des_iterations: int = 60

    kind: ClassVar[str] = "price_fault_schedule"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _workload_name(self.workload))
        object.__setattr__(self, "arch", arch_alias(self.arch))
        _check_engine(self.engine)
        _positive_int("scale", self.scale)
        _positive_int("batch_size", self.batch_size, optional=True)
        _positive_int("pool_size", self.pool_size, optional=True)
        _positive_int("des_iterations", self.des_iterations)
        events = []
        try:
            for event in self.events:
                device, fail_t, recover_t = event
                recover = None if recover_t is None else float(recover_t)
                if recover is not None and math.isinf(recover):
                    recover = None
                events.append((str(device), float(fail_t), recover))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"events must be (device, fail_time, recover_time) "
                f"triples: {exc}"
            ) from None
        object.__setattr__(self, "events", tuple(events))
        _positive_real("horizon", self.horizon)

    def to_dict(self) -> Dict:
        body = super().to_dict()
        body["events"] = [list(e) for e in self.events]
        return body

    def resolve(self):
        """The :class:`~repro.core.faults.FaultSchedule` this denotes."""
        return FaultSchedule(
            tuple(
                FaultEvent(
                    device,
                    fail_t,
                    math.inf if recover is None else recover,
                )
                for device, fail_t, recover in self.events
            )
        )

    def fingerprint(self) -> str:
        point = SweepPoint(
            workload=resolve_workload(self.workload),
            arch=resolve_arch(self.arch),
            scale=self.scale,
            engine=self.engine,
            batch_size=self.batch_size,
            pool_size=self.pool_size,
            des_iterations=self.des_iterations,
        )
        return _fingerprint(
            REQUEST_SCHEMA,
            self.kind,
            cache_key(point),
            list(self.events),
            self.horizon,
        )


_REQUEST_KINDS = {
    cls.kind: cls
    for cls in (SimulationRequest, SweepRequest, FaultScheduleRequest)
}


def request_from_dict(data: Dict) -> _RequestBase:
    """Deserialize any request kind (the service's single entry point).

    Validates the :data:`REQUEST_SCHEMA` version tag and dispatches on
    ``kind``; field order in ``data`` never matters (a test pins
    fingerprint stability across orderings and processes).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"request must be a dict, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        cls = _REQUEST_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown request kind {kind!r}; choose from "
            f"{sorted(_REQUEST_KINDS)}"
        ) from None
    return cls.from_dict(data)


def _as_cache(cache) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(Path(cache))


def _reject_request_overrides(kind: str, *overrides) -> None:
    """Raise when scenario keywords accompany a request object.

    A request object *is* the scenario; letting ``engine=`` or
    ``batch_size=`` ride along would be silently ignored, so any
    non-default value is a conflict (mirrors the workload/arch/scale
    positional check).  ``overrides`` are ``(name, value, default)``.
    """
    clash = [name for name, value, default in overrides if value != default]
    if clash:
        raise ConfigError(
            f"keyword(s) {', '.join(clash)} conflict with the {kind}; "
            f"set scenario parameters on the request itself"
        )


def simulate(
    workload: Union[str, Workload, SimulationRequest],
    arch: Union[None, str, ArchitectureConfig] = None,
    scale: Optional[int] = None,
    *,
    engine: str = "analytical",
    batch_size: Optional[int] = None,
    hw: Optional[HardwareConfig] = None,
    pool_size: Optional[int] = None,
    accelerator: str = "tpu",
    fabric_bandwidth: Optional[float] = None,
    des_iterations: int = 60,
    des_buffer_batches: int = 4,
    trace: Optional[obs.Tracer] = None,
    metrics: Optional[obs.MetricsRegistry] = None,
    cache: Union[None, str, Path, ResultCache] = None,
) -> SimulationOutcome:
    """Simulate one ``workload × arch × scale`` scenario on any engine.

    Accepts either a :class:`SimulationRequest` as the sole scenario
    argument (the wire form the service speaks) or the legacy
    ``workload, arch, scale`` keywords — the two spellings resolve to
    the identical grid point.

    ``trace``/``metrics`` install the given instruments for the duration
    of the call; ``cache`` (a :class:`~repro.cache.ResultCache` or a
    directory path) serves the point content-addressed when possible.
    Traced runs always recompute — a cached payload has no spans to
    replay — and store what they computed: a tracer never changes an
    engine's result, so the entry is the one an untraced run would write.
    """
    if isinstance(workload, SimulationRequest):
        if arch is not None or scale is not None or hw is not None:
            raise ConfigError(
                "pass either a SimulationRequest or workload/arch/scale "
                "keywords, not both"
            )
        _reject_request_overrides(
            "SimulationRequest",
            ("engine", engine, "analytical"),
            ("batch_size", batch_size, None),
            ("pool_size", pool_size, None),
            ("accelerator", accelerator, "tpu"),
            ("fabric_bandwidth", fabric_bandwidth, None),
            ("des_iterations", des_iterations, 60),
            ("des_buffer_batches", des_buffer_batches, 4),
        )
        point = workload.resolve()
    else:
        if arch is None or scale is None:
            raise ConfigError("simulate needs workload, arch and scale")
        point = SweepPoint(
            workload=resolve_workload(workload),
            arch=resolve_arch(arch),
            scale=scale,
            engine=engine,
            batch_size=batch_size,
            hw=hw,
            pool_size=pool_size,
            accelerator=accelerator,
            fabric_bandwidth=fabric_bandwidth,
            des_iterations=des_iterations,
            des_buffer_batches=des_buffer_batches,
        )
    _check_engine(point.engine)
    store = _as_cache(cache)
    with obs.session(tracer=trace, metrics=metrics):
        with obs.span(
            "api.simulate", cat="api",
            engine=point.engine, workload=point.workload.name,
            scale=point.scale,
        ):
            key = cache_key(point) if store is not None else None
            if store is not None and trace is None:
                payload = store.get(key)
                if payload is not None:
                    return _result_from_dict(point.engine, payload)
            result = evaluate_point(point)
            if store is not None:
                store.put(key, result.to_dict())
    return result


def sweep(
    spec: Union[SweepSpec, SweepRequest, list],
    *,
    n_jobs: int = 1,
    cache: Union[None, str, Path, ResultCache] = None,
    metrics: Union[None, bool, obs.MetricsRegistry] = None,
    batch: bool = True,
):
    """Evaluate a grid through the facade (thin wrapper over
    :func:`repro.core.sweeps.run_sweep` with the facade's cache and
    metrics conveniences).  Accepts a :class:`SweepRequest` (the wire
    form), a :class:`~repro.core.sweeps.SweepSpec`, or an explicit point
    list.  ``batch=True`` (default) evaluates every analytical point
    through the vectorized kernel in structure-of-arrays passes,
    ``False`` forces per-point evaluation."""
    if isinstance(spec, SweepRequest):
        spec = spec.resolve()
    return run_sweep(
        spec,
        n_jobs=n_jobs,
        cache=_as_cache(cache),
        metrics=metrics,
        batch=batch,
    )


def price_fault_schedule(
    workload: Union[str, Workload, FaultScheduleRequest],
    arch: Union[None, str, ArchitectureConfig] = None,
    scale: Optional[int] = None,
    schedule=None,
    horizon: Optional[float] = None,
    *,
    engine: str = "analytical",
    batch_size: Optional[int] = None,
    hw: Optional[HardwareConfig] = None,
    pool_size: Optional[int] = None,
    des_iterations: int = 60,
    trace: Optional[obs.Tracer] = None,
    metrics: Optional[obs.MetricsRegistry] = None,
):
    """Price a :class:`~repro.core.faults.FaultSchedule` on any engine.

    Accepts either a :class:`FaultScheduleRequest` as the sole scenario
    argument (the wire form) or the legacy ``workload, arch, scale,
    schedule, horizon`` arguments.

    Returns a :class:`~repro.core.faults.DegradedTimeline`: the horizon
    partitioned into constant-fault windows, each priced by the chosen
    engine on the degraded server — FPGA loss absorbed by the prep
    pool, SSD loss halving the box's read bandwidth after resharding,
    accelerator loss shrinking the job for its window.
    """
    if isinstance(workload, FaultScheduleRequest):
        if (
            arch is not None
            or scale is not None
            or schedule is not None
            or horizon is not None
            or hw is not None
        ):
            raise ConfigError(
                "pass either a FaultScheduleRequest or workload/arch/"
                "scale/schedule/horizon arguments, not both"
            )
        _reject_request_overrides(
            "FaultScheduleRequest",
            ("engine", engine, "analytical"),
            ("batch_size", batch_size, None),
            ("pool_size", pool_size, None),
            ("des_iterations", des_iterations, 60),
        )
        request = workload
        workload, arch, scale = request.workload, request.arch, request.scale
        schedule, horizon = request.resolve(), request.horizon
        engine = request.engine
        batch_size = request.batch_size
        pool_size = request.pool_size
        des_iterations = request.des_iterations
    elif arch is None or scale is None or schedule is None or horizon is None:
        raise ConfigError(
            "price_fault_schedule needs workload, arch, scale, schedule "
            "and horizon"
        )

    _check_engine(engine)
    point = SweepPoint(
        workload=resolve_workload(workload),
        arch=resolve_arch(arch),
        scale=scale,
        engine=engine,
        batch_size=batch_size,
        hw=hw,
        pool_size=pool_size,
        des_iterations=des_iterations,
    )
    with obs.session(tracer=trace, metrics=metrics):
        with obs.span(
            "api.price_fault_schedule", cat="api",
            engine=engine, workload=point.workload.name, scale=scale,
        ):
            server = build_server_cached(
                point.arch, scale, hw=hw, pool_size=pool_size
            )

            def runner(degraded):
                # An accelerator fault shrinks the job for its window.
                window = replace(point, scale=degraded.n_accelerators)
                return evaluate_point(window, server=degraded)

            return price_schedule(server, schedule, horizon, runner)


def trace_iteration_time(tracer: obs.Tracer) -> float:
    """The per-iteration time a trace's ``iteration`` spans imply.

    ``repro trace`` reconciles this against ``result.iteration_time``;
    the two agree to well within 1% for every engine (a test pins it).
    """
    return obs.steady_iteration_time(
        tracer.model_spans(cat=obs.ITERATION_CATEGORY)
    )
