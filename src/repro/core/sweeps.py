"""Declarative sweep execution: grids of simulator runs, cached and
parallel.

Every evaluation figure is some grid — workloads × architectures ×
accelerator counts, run through one of the engines (analytical, DES,
scale-out).  Before this module each benchmark hand-rolled its own
nested loops and recomputed every point on every run.  Here the grid is
*data*:

* :class:`SweepSpec` names the axes; :meth:`SweepSpec.points` expands
  them in deterministic workload-major order (workload, then
  architecture, then scale), so result vectors line up run to run and
  process to process.
* :func:`run_sweep` evaluates the points.  Each point is first looked up
  in an optional persistent :class:`~repro.cache.ResultCache` under a
  content-hash key (:func:`cache_key`) covering everything that
  determines the answer — hardware config, architecture config, workload
  row, scale, engine and engine parameters.  Only misses are computed:
  analytical ones in one vectorized kernel pass, the rest point by
  point, serially for ``n_jobs=1``, otherwise on a
  ``ProcessPoolExecutor`` in contiguous chunks.  Freshly computed
  results are written back to the cache in the parent process (workers
  never touch the cache directory, so there is nothing to coordinate).
* Results are identical whichever path produced them: the engines are
  deterministic, workers inherit the same code, and cached entries
  round-trip through JSON bit-for-bit (tests pin all three ways).

The in-process memo (:mod:`repro.cache`) sits underneath: server models
and per-server demand vectors are shared across the points of one run.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.errors import ConfigError
from repro.cache import ResultCache, fingerprint
from repro.core import analytical_batch, des, flowengine
from repro.core.analytical import TrainingScenario, simulate
from repro.core.config import ArchitectureConfig, HardwareConfig, PrepDevice
from repro.core.results import FlowResult, SimulationResult
from repro.core.scaleout import (
    ScaleOutConfig,
    ScaleOutResult,
    simulate_scaleout,
)
from repro.core.server import ServerModel, build_server_cached
from repro.workloads.registry import Workload, get_workload

#: The accelerator counts the scalability figures sweep.
SCALE_LADDER = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Engines a sweep point may request.
ENGINES = ("analytical", "des", "flow", "scaleout")

#: Reusable no-op context for paths that run without a metrics session.
_NULL_CTX = contextlib.nullcontext()

#: What :func:`cache_key` hashes for "no override": shared instances, so
#: their canonical text is encoded once (see :func:`repro.cache.fingerprint`).
_DEFAULT_HW = HardwareConfig()
_DEFAULT_SCALEOUT = ScaleOutConfig()


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: everything one engine invocation needs.

    ``scale`` is the accelerator count for the analytical/DES engines
    and the node count for ``scaleout``.  ``arch`` is unused by
    ``scaleout`` (the cluster is described by ``scaleout_config``).
    """

    workload: Workload
    arch: Optional[ArchitectureConfig]
    scale: int
    engine: str = "analytical"
    batch_size: Optional[int] = None
    hw: Optional[HardwareConfig] = None
    pool_size: Optional[int] = None
    accelerator: str = "tpu"
    fabric_bandwidth: Optional[float] = None
    scaleout_config: Optional[ScaleOutConfig] = None
    des_iterations: int = 60
    des_buffer_batches: int = 4

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.engine != "scaleout" and self.arch is None:
            raise ConfigError(f"engine {self.engine!r} needs an architecture")


@dataclass(frozen=True)
class SweepSpec:
    """A full grid, expanded lazily in deterministic order."""

    workloads: Tuple[Workload, ...]
    archs: Tuple[Optional[ArchitectureConfig], ...]
    scales: Tuple[int, ...] = SCALE_LADDER
    engine: str = "analytical"
    batch_size: Optional[int] = None
    hw: Optional[HardwareConfig] = None
    pool_size: Optional[int] = None
    accelerator: str = "tpu"
    fabric_bandwidth: Optional[float] = None
    scaleout_config: Optional[ScaleOutConfig] = None
    des_iterations: int = 60
    des_buffer_batches: int = 4

    def __post_init__(self) -> None:
        if not self.workloads or not self.archs or not self.scales:
            raise ConfigError("sweep axes must be non-empty")

    def points(self) -> List[SweepPoint]:
        """Workload-major, then architecture, then ascending scale."""
        return [
            SweepPoint(
                workload=w,
                arch=a,
                scale=s,
                engine=self.engine,
                batch_size=self.batch_size,
                hw=self.hw,
                pool_size=self.pool_size,
                accelerator=self.accelerator,
                fabric_bandwidth=self.fabric_bandwidth,
                scaleout_config=self.scaleout_config,
                des_iterations=self.des_iterations,
                des_buffer_batches=self.des_buffer_batches,
            )
            for w in self.workloads
            for a in self.archs
            for s in self.scales
        ]


def cache_key(point: SweepPoint) -> str:
    """Content-hash key for a point's result.

    The whole point dataclass is fingerprinted — every nested config
    field participates, so changing any of them (a bandwidth, a sync
    strategy, a Table I rate) can never serve a stale entry.  ``hw`` and
    ``scaleout_config`` are normalized to their defaults first so that
    "no override" and "explicit default" hash alike.
    """
    hw = point.hw or _DEFAULT_HW
    scaleout = (
        (point.scaleout_config or _DEFAULT_SCALEOUT)
        if point.engine == "scaleout"
        else None
    )
    return fingerprint(
        "sweep-point",
        point.engine,
        point.workload,
        point.arch,
        point.scale,
        point.batch_size,
        hw,
        point.pool_size,
        point.accelerator,
        point.fabric_bandwidth,
        scaleout,
        point.des_iterations if point.engine == "des" else None,
        point.des_buffer_batches if point.engine == "des" else None,
    )


def evaluate_point(
    point: SweepPoint, server: Optional[ServerModel] = None
) -> Union[SimulationResult, "DesResult", FlowResult, ScaleOutResult]:
    """Run one point through its engine: the one dispatch from a point
    to an engine, shared by sweeps, the facade, the service and
    fault-schedule windows (module-level: pool workers import it by
    name).

    ``server`` defaults to the memoized model of the point's
    architecture and scale; fault-schedule pricing passes a degraded
    copy instead.  An active tracer gets one ``sweep.point`` wall span
    per call plus the engine's own model spans (for the DES, one
    ``iteration`` span per simulated iteration); it never changes which
    solver runs or what it returns.
    """
    with obs.span(
        "sweep.point", cat="sweep",
        workload=point.workload.name, scale=point.scale, engine=point.engine,
    ):
        if point.engine == "scaleout":
            return simulate_scaleout(
                point.workload, point.scale, config=point.scaleout_config
            )
        if server is None:
            server = build_server_cached(
                point.arch, point.scale, hw=point.hw, pool_size=point.pool_size
            )
        scenario = TrainingScenario(
            workload=point.workload,
            arch=point.arch,
            n_accelerators=point.scale,
            batch_size=point.batch_size,
            hw=point.hw,
            accelerator=point.accelerator,
            fabric_bandwidth=point.fabric_bandwidth,
            pool_size=point.pool_size,
        )
        if point.engine == "des":
            return des.simulate_des(
                scenario,
                server=server,
                iterations=point.des_iterations,
                buffer_batches=point.des_buffer_batches,
            )
        if point.engine == "flow":
            return flowengine.simulate_flow(scenario, server=server)
        return simulate(scenario, server=server)


def evaluate_point_metered(point: SweepPoint) -> Tuple[object, Dict]:
    """Evaluate one point under a fresh metrics registry.

    Module-level so pool workers import it by name.  Each point's model
    counters are collected hermetically and returned alongside the
    result, so the parent can fold child manifests in point order and
    obtain the *same* aggregate whether points ran serially in-process
    or fanned out over workers (a test pins parallel == serial).
    """
    registry = obs.MetricsRegistry()
    with obs.session(metrics=registry):
        result = evaluate_point(point)
    return result, registry.to_manifest()


def _result_from_dict(engine: str, data: dict):
    if engine == "analytical":
        return SimulationResult.from_dict(data)
    if engine == "des":
        return des.DesResult.from_dict(data)
    if engine == "flow":
        return FlowResult.from_dict(data)
    return ScaleOutResult.from_dict(data)


@dataclass
class SweepOutcome:
    """Results aligned index-for-index with the evaluated points.

    ``manifest`` is the merged observability run manifest (counters +
    histograms across every evaluated point, cache layer included) when
    the sweep ran with metrics collection, else ``None``.

    ``dispatch`` records, per point, which execution path produced the
    result: ``"cache"``, ``"batch"`` (the vectorized kernel), or
    ``"scalar (<why>)"`` for per-point evaluation — a non-analytical
    engine, or ``batch=False``.  ``batch_points`` counts the points the
    kernel priced and ``batch_fallbacks`` the points priced outside it;
    an active tracer changes neither.
    """

    points: Tuple[SweepPoint, ...]
    results: Tuple[object, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    manifest: Optional[Dict] = None
    batch_points: int = 0
    batch_fallbacks: int = 0
    dispatch: Tuple[str, ...] = ()

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def __len__(self) -> int:
        return len(self.points)

    def by_key(self) -> Dict[Tuple[str, Optional[str], int], object]:
        """Index results as ``(workload name, arch name, scale)``."""
        return {
            (p.workload.name, p.arch.name if p.arch else None, p.scale): r
            for p, r in zip(self.points, self.results)
        }

    def curve(
        self, workload_name: str, arch_name: Optional[str]
    ) -> List[object]:
        """The results for one (workload, arch) in ascending scale order."""
        rows = [
            (p.scale, r)
            for p, r in zip(self.points, self.results)
            if p.workload.name == workload_name
            and (p.arch.name if p.arch else None) == arch_name
        ]
        rows.sort(key=lambda item: item[0])
        return [r for _, r in rows]


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: Union[None, bool, "obs.MetricsRegistry"] = None,
    batch: bool = True,
) -> SweepOutcome:
    """Evaluate a grid, serving cached points and computing the rest.

    Every analytical cache miss goes through the vectorized batch kernel
    (:func:`repro.core.analytical_batch.evaluate_grid`), which prices
    them in structure-of-arrays passes with bit-identical results,
    tracer or not.  Points of the other engines go through
    :func:`evaluate_point`; ``batch=False`` sends every point there (the
    scalar reference oracle).

    The per-point remainder runs through :func:`parallel_map`: serially
    in-process for ``n_jobs=1``, otherwise on a process pool, one
    contiguous chunk per worker.  The point order of the outcome never
    depends on ``n_jobs``, ``batch``, or the cache state.  Points
    computed in pool workers emit no per-point spans into the caller's
    tracer; their results and the manifest are identical to a serial or
    untraced run.

    ``metrics`` turns on observability aggregation: pass ``True`` (a
    fresh registry) or an existing :class:`~repro.obs.MetricsRegistry`.
    The batch kernel emits into the parent registry directly; every
    per-point evaluation runs under a hermetic child registry —
    in-process or in a pool worker alike — and the children are merged
    into the parent in point-index order, so the outcome's ``manifest``
    is identical whichever execution path ran (parallel == serial, a
    test pins it).  Cache-layer counters accrue in the parent, where the
    cache lives.
    """
    points = list(spec.points() if isinstance(spec, SweepSpec) else spec)
    if n_jobs < 1:
        raise ConfigError("n_jobs must be >= 1")
    registry: Optional[obs.MetricsRegistry]
    if metrics is None or metrics is False:
        registry = None
    elif metrics is True:
        registry = obs.MetricsRegistry()
    else:
        registry = metrics
    results: List[object] = [None] * len(points)
    dispatch: List[str] = ["cache"] * len(points)

    parent_session = (
        obs.session(metrics=registry) if registry is not None else None
    )
    with parent_session or _NULL_CTX:
        with obs.span("sweep.run", cat="sweep", points=len(points)):
            pending: List[int] = []
            hits = 0
            keys: List[str] = []
            if cache is not None:
                with obs.span("sweep.cache_scan", cat="sweep"):
                    # One key per point, reused by the write-backs below.
                    keys = [cache_key(point) for point in points]
                    for idx, point in enumerate(points):
                        payload = cache.get(keys[idx])
                        if payload is None:
                            pending.append(idx)
                        else:
                            results[idx] = _result_from_dict(
                                point.engine, payload
                            )
                            hits += 1
            else:
                pending = list(range(len(points)))
            obs.inc("sweep.points", len(points))
            obs.inc("sweep.cache_hits", hits)
            obs.inc("sweep.cache_misses", len(pending))

            kernel: List[int] = []
            scalar: List[int] = []
            for idx in pending:
                engine = points[idx].engine
                if not batch:
                    dispatch[idx] = "scalar (batch disabled)"
                elif engine != "analytical":
                    dispatch[idx] = (
                        f"scalar (engine {engine!r} has no vectorized form)"
                    )
                else:
                    dispatch[idx] = "batch"
                    kernel.append(idx)
                    continue
                scalar.append(idx)
            obs.inc("sweep.batch_points", len(kernel))
            obs.inc("sweep.batch_fallbacks", len(scalar))

            computed: List[object] = []
            if kernel:
                computed = analytical_batch.evaluate_grid(
                    [points[i] for i in kernel]
                )
            if scalar:
                todo = [points[i] for i in scalar]
                if registry is None:
                    computed += parallel_map(evaluate_point, todo, n_jobs)
                else:
                    # Point-index order: the merge is deterministic and
                    # independent of which worker computed what.
                    for result, manifest in parallel_map(
                        evaluate_point_metered, todo, n_jobs
                    ):
                        registry.merge_manifest(manifest)
                        computed.append(result)
            for idx, result in zip(kernel + scalar, computed):
                results[idx] = result
                if cache is not None:
                    cache.put(keys[idx], result.to_dict())

    return SweepOutcome(
        points=tuple(points),
        results=tuple(results),
        cache_hits=hits,
        cache_misses=len(pending),
        manifest=registry.to_manifest() if registry is not None else None,
        batch_points=len(kernel),
        batch_fallbacks=len(scalar),
        dispatch=tuple(dispatch),
    )


def parallel_map(
    fn: Callable, items: Iterable, n_jobs: int = 1
) -> List[object]:
    """``map`` with the sweep engine's process-pool semantics.

    ``fn`` must be a module-level callable (pool workers import it by
    qualified name); order follows ``items``; ``n_jobs=1`` is a plain
    serial loop, so callers need no special casing.  Otherwise the pool
    never has more workers than items, and each worker gets one
    contiguous chunk.
    """
    items = list(items)
    if n_jobs < 1:
        raise ConfigError("n_jobs must be >= 1")
    if n_jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(n_jobs, len(items))
    chunksize = -(-len(items) // workers)
    with obs.span(
        "sweep.pool", cat="sweep", workers=workers, chunksize=chunksize
    ):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))


def figure21_spec(hw: Optional[HardwareConfig] = None) -> SweepSpec:
    """The Figure 21 grid: five strategies × two workloads × the scale
    ladder — the benchmark suite's canonical end-to-end sweep."""
    return SweepSpec(
        workloads=(
            get_workload("Inception-v4"),
            get_workload("Transformer-SR"),
        ),
        archs=(
            ArchitectureConfig.baseline(),
            ArchitectureConfig.baseline_acc(PrepDevice.GPU),
            ArchitectureConfig.baseline_acc(),
            ArchitectureConfig.trainbox(prep_pool=False),
            ArchitectureConfig.trainbox(),
        ),
        scales=SCALE_LADDER,
        engine="analytical",
        hw=hw,
    )
