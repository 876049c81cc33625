"""Batch-level discrete-event simulation of the training pipeline.

The analytical solver applies the steady-state overlap law
``throughput = min(prep, consume)``.  This module *simulates* the
pipeline batch by batch instead — preparation stations in tandem with
finite inter-stage buffers (double/quadruple buffering), the delivery
buffer next-batch prefetch provides, and the global iteration barrier of
synchronous data-parallel training — and measures throughput from event
times.  With deterministic service times the two engines must agree
closely (a test pins this); with service-time jitter enabled the DES
demonstrates the paper's §VI-A claim that latency variation barely moves
throughput thanks to pipelining.

Event times follow the standard recursion for tandem queues with
blocking-after-service: batch ``k`` departs station ``i`` at

    D[i][k] = max(arrival, own previous departure, space downstream) + S

which is an exact event-driven solution for FIFO deterministic networks.

Two solvers implement the recursion:

* :func:`run_pipeline_reference` — the batch-at-a-time scalar loop, the
  executable spec.  It handles jitter and station-trace recording.
* a **vectorized** solver used for every other run, traced or not —
  numpy over the whole batch axis, one station at a time.  Each
  station's recursion ``F[k] = max(A[k], F[k - s]) + S`` is a max-plus
  prefix scan solved in ``O(log)`` doubling passes
  (``F[k] = max_t A[k - t·s] + (t+1)·S``).  Inter-station blocking can
  be dropped there because with deterministic service it never moves the
  last station's departures: a blocked batch is released exactly when
  the downstream slot frees, which is never earlier than the downstream
  server it would wait for anyway (the classical finite-buffer
  invariance for deterministic tandem lines).  The delivery-buffer
  barrier *is* kept exactly: the last station is solved one iteration at
  a time, where its block term — ``iter_start`` of ``B + 1`` iterations
  ago — is already known.  A golden test pins the vectorized solver to
  the scalar reference across bottleneck positions, multi-server
  stations, buffer depths and scales.

Under an active tracer both solvers emit one ``iteration`` model span
per simulated iteration on the ``des`` track, from their own
``iter_start``/``iter_finish``, so a tracer never changes which solver
runs or what it returns.  Station busy spans need the per-batch event
stream only the reference solver records: they come from an explicit
``simulate_des(record_trace=True)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigError, SimulationError
from repro.core.analytical import (
    TrainingScenario,
    make_sync_model,
    prep_capacity_cached,
)
from repro.core.config import HardwareConfig
from repro.core.dataflow import build_demand_cached
from repro.core.results import SimulationOutcome
from repro.core.server import ServerModel, build_server


@dataclass(frozen=True)
class Station:
    """One preparation stage.

    ``rate`` is the samples/second of **one server**; ``servers`` batches
    can be in service concurrently (an FPGA array prepares one batch per
    device at device speed, not one batch at the aggregate rate).  The
    default ``servers=1`` models a perfectly shared stage at the
    aggregate rate — equivalent in steady state, optimistic on latency.
    """

    name: str
    rate: float  # samples/second per server
    servers: int = 1

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ConfigError(f"station {self.name} needs >= 1 server")

    @property
    def aggregate_rate(self) -> float:
        return self.rate * self.servers

    def service_time(self, batch_size: int) -> float:
        if self.rate <= 0:
            raise ConfigError(f"station {self.name} has non-positive rate")
        return batch_size / self.rate


@dataclass(frozen=True)
class TraceEvent:
    """One busy interval in the simulated pipeline.

    ``kind`` is ``"station"`` (a batch in service at a prep stage) or
    ``"iteration"`` (the global compute+sync barrier); ``index`` is the
    batch or iteration number.
    """

    kind: str
    name: str
    index: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DesResult(SimulationOutcome):
    """Measured outcome of one DES run.

    Shares the :class:`~repro.core.results.SimulationOutcome` interface
    with the other engines: ``throughput``/``prep_rate``/``consume_rate``
    /``bottleneck`` plus the derived ``prep_bound``/``iteration_time``/
    ``speedup_over``.  ``resource_utilization`` maps each station to its
    measured busy fraction.
    """

    throughput: float
    iterations: int
    makespan: float
    resource_utilization: Dict[str, float]
    stations: tuple
    trace: Optional[tuple] = None

    workload_name: str = ""
    arch_name: str = ""
    n_accelerators: int = 0
    batch_size: int = 0
    prep_rate: float = math.inf
    consume_rate: float = 0.0
    bottleneck: str = ""

    def relative_error(self, analytical_throughput: float) -> float:
        if analytical_throughput <= 0:
            raise SimulationError(
                f"reference throughput must be positive for {self.scenario_id()}"
            )
        return abs(self.throughput - analytical_throughput) / analytical_throughput

    def stall_time(self, station_name: str) -> float:
        """Total time the named station sat idle while the pipeline ran
        (requires a recorded trace)."""
        if self.trace is None:
            raise SimulationError("run with record_trace=True to analyze stalls")
        busy = sum(
            e.duration
            for e in self.trace
            if e.kind == "station" and e.name == station_name
        )
        return self.makespan - busy

    def to_dict(self) -> Dict:
        """JSON-encodable form for the persistent result cache.

        Traces are transient diagnostics and are not cached; stations
        round-trip as (name, rate, servers) rows.
        """
        return {
            "throughput": self.throughput,
            "iterations": self.iterations,
            "makespan": self.makespan,
            "resource_utilization": dict(self.resource_utilization),
            "stations": [
                [s.name, s.rate, s.servers] for s in self.stations
            ],
            "workload_name": self.workload_name,
            "arch_name": self.arch_name,
            "n_accelerators": self.n_accelerators,
            "batch_size": self.batch_size,
            "prep_rate": self.prep_rate,
            "consume_rate": self.consume_rate,
            "bottleneck": self.bottleneck,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DesResult":
        return cls(
            throughput=data["throughput"],
            iterations=data["iterations"],
            makespan=data["makespan"],
            resource_utilization=dict(data["resource_utilization"]),
            stations=tuple(
                Station(name, rate, servers=servers)
                for name, rate, servers in data["stations"]
            ),
            trace=None,
            workload_name=data.get("workload_name", ""),
            arch_name=data.get("arch_name", ""),
            n_accelerators=data.get("n_accelerators", 0),
            batch_size=data.get("batch_size", 0),
            prep_rate=data.get("prep_rate", math.inf),
            consume_rate=data.get("consume_rate", 0.0),
            bottleneck=data.get("bottleneck", ""),
        )


def _stations_from_rates(
    rates: Dict[str, float], server_counts: Optional[Dict[str, int]] = None
) -> List[Station]:
    """Preparation stations in physical order, finite-rate only.

    ``server_counts`` splits a stage's aggregate rate across that many
    parallel servers (device-granular service, same steady throughput).
    """
    order = [
        "ssd",
        "host_cpu",
        "prep_compute",
        "prep_network",
        "host_memory",
        "pcie",
        "accelerator_ingest",
    ]
    server_counts = server_counts or {}
    stations = []
    for name in order:
        rate = rates.get(name, math.inf)
        if math.isfinite(rate):
            servers = max(1, server_counts.get(name, 1))
            stations.append(Station(name, rate / servers, servers=servers))
    if not stations:
        # Nothing binds preparation; a single infinite-speed stage keeps
        # the recursion trivial.
        stations.append(Station("prep", 1e18))
    return stations


def _normalized_fields(
    stations: Sequence[Station],
    n_accelerators: int,
    batch_size: int,
    iteration_time: float,
) -> Dict[str, object]:
    """The SimulationOutcome fields both solvers derive identically.

    ``prep_rate`` is the slowest station's aggregate rate (the tandem
    line's steady capacity), ``consume_rate`` the iteration barrier's
    demand; ``bottleneck`` names whichever binds, exactly mirroring the
    analytical engine's convention.
    """
    slowest = min(stations, key=lambda s: s.aggregate_rate)
    prep_rate = slowest.aggregate_rate
    consume_rate = (
        n_accelerators * batch_size / iteration_time
        if iteration_time > 0
        else math.inf
    )
    bottleneck = slowest.name if prep_rate < consume_rate else "accelerator"
    return {
        "n_accelerators": n_accelerators,
        "batch_size": batch_size,
        "prep_rate": prep_rate,
        "consume_rate": consume_rate,
        "bottleneck": bottleneck,
    }


def _throughput_from_finish(
    iter_finish: Sequence[float],
    iterations: int,
    n_accelerators: int,
    batch_size: int,
) -> float:
    """Steady throughput over the post-warmup window (shared by both
    solvers so they agree on the measurement, not just the event times)."""
    makespan = iter_finish[-1]
    # Skip the pipeline-fill warmup when measuring steady throughput.
    warmup = min(iterations // 5, iterations - 1)
    window = iter_finish[-1] - iter_finish[warmup]
    done = iterations - 1 - warmup
    if done <= 0 or window <= 0:
        return iterations * n_accelerators * batch_size / makespan
    return done * n_accelerators * batch_size / window


def run_pipeline_reference(
    stations: Sequence[Station],
    n_accelerators: int,
    batch_size: int,
    iteration_time: float,
    iterations: int,
    buffer_batches: int = 4,
    jitter: float = 0.0,
    seed: int = 0,
    record_trace: bool = False,
) -> DesResult:
    """The scalar batch-at-a-time solver — the executable specification.

    Handles service-time jitter and trace recording; the vectorized
    solver is pinned to this one by a golden test.
    """
    if iterations <= 0:
        raise ConfigError("iterations must be positive")
    if buffer_batches < 1:
        raise ConfigError("need at least one buffer slot between stages")
    n_batches = iterations * n_accelerators
    rng = np.random.default_rng(seed)

    def sample_service(base: float) -> float:
        if jitter <= 0:
            return base
        sigma = math.sqrt(math.log(1 + jitter**2))
        return base * rng.lognormal(-(sigma**2) / 2, sigma)

    m = len(stations)
    # depart[i][k] = time batch k leaves stage i (service done AND a
    # downstream slot was free — blocking after service).
    depart = [[0.0] * n_batches for _ in range(m)]
    busy = [0.0] * m
    trace: List[TraceEvent] = [] if record_trace else None  # type: ignore[assignment]

    iter_start = [0.0] * iterations
    iter_finish = [0.0] * iterations

    for k in range(n_batches):
        for i, station in enumerate(stations):
            arrival = depart[i - 1][k] if i > 0 else 0.0
            # A server frees when batch k - servers *departs* this stage
            # (a blocked batch keeps occupying its server).
            server_free = (
                depart[i][k - station.servers]
                if k - station.servers >= 0
                else 0.0
            )
            service = sample_service(station.service_time(batch_size))
            start = max(arrival, server_free)
            finish = start + service
            # Blocking after service: the batch holds its server until a
            # downstream slot frees — i.e. until batch k - B - S_next has
            # departed stage i+1 (B buffer slots + S_next in service).
            block = 0.0
            if i + 1 < m:
                j = k - buffer_batches - stations[i + 1].servers
                if j >= 0:
                    block = depart[i + 1][j]
            else:
                # Delivery buffer: next-batch prefetch holds a few global
                # batches ahead of the consumers.
                j = k // n_accelerators - buffer_batches - 1
                if j >= 0:
                    block = iter_start[j]
            depart[i][k] = max(finish, block)
            busy[i] += service
            if trace is not None:
                trace.append(
                    TraceEvent("station", station.name, k, start, finish)
                )
        # Iteration barrier.
        j = k // n_accelerators
        if (k + 1) % n_accelerators == 0:
            ready = depart[m - 1][k]
            prev_finish = iter_finish[j - 1] if j > 0 else 0.0
            iter_start[j] = max(ready, prev_finish)
            iter_finish[j] = iter_start[j] + sample_service(iteration_time)
            if trace is not None:
                trace.append(
                    TraceEvent(
                        "iteration", "compute+sync", j, iter_start[j], iter_finish[j]
                    )
                )

    _emit_iterations(iter_start, iter_finish)
    makespan = iter_finish[-1]
    throughput = _throughput_from_finish(
        iter_finish, iterations, n_accelerators, batch_size
    )
    utilization = {
        s.name: busy[i] / (makespan * s.servers) for i, s in enumerate(stations)
    }
    return DesResult(
        throughput=throughput,
        iterations=iterations,
        makespan=makespan,
        resource_utilization=utilization,
        stations=tuple(stations),
        trace=tuple(trace) if trace is not None else None,
        **_normalized_fields(stations, n_accelerators, batch_size, iteration_time),
    )


def _emit_iterations(
    iter_start: Sequence[float], iter_finish: Sequence[float]
) -> None:
    """One ``iteration`` model span per simulated iteration on the
    active tracer's ``des`` track — the spans ``repro trace`` reconciles
    against (no-op without a tracer)."""
    tracer = obs.current_tracer()
    if tracer is None:
        return
    for j, (start, end) in enumerate(zip(iter_start, iter_finish)):
        tracer.add_model_span(
            "iteration",
            float(start),
            float(end),
            cat=obs.ITERATION_CATEGORY,
            track="des",
            index=j,
        )


def _maxplus_scan(init: np.ndarray, shift: int, step: float) -> np.ndarray:
    """Solve ``out[k] = max(init[k], out[k - shift] + step)`` in place.

    Unrolled, the recursion is ``out[k] = max_t init[k - t·shift] + t·step``
    — a max-plus prefix scan along stride ``shift``.  Doubling both the
    span and the accumulated step covers all ``t`` in ``O(log)`` passes.
    """
    out = init
    span = shift
    add = step
    while span < len(out):
        np.maximum(out[span:], out[:-span] + add, out=out[span:])
        span *= 2
        add *= 2
    return out


def _run_pipeline_vectorized(
    stations: Sequence[Station],
    n_accelerators: int,
    batch_size: int,
    iteration_time: float,
    iterations: int,
    buffer_batches: int = 4,
) -> DesResult:
    """Deterministic solver, vectorized over the batch axis per station.

    Stations before the last run feed-forward: each applies the scan
    ``D[k] = max(A[k], D[k - servers]) + S``.  Dropping the
    blocking-after-service term is exact for last-station departures with
    deterministic service (see the module docstring).  The last station
    keeps its delivery-buffer block, solved one iteration at a time where
    the block — ``iter_start`` of ``buffer_batches + 1`` iterations ago —
    is already known; the previous iteration's last ``servers``
    departures are carried as a prefix so the scan crosses the chunk
    boundary correctly.
    """
    if iterations <= 0:
        raise ConfigError("iterations must be positive")
    if buffer_batches < 1:
        raise ConfigError("need at least one buffer slot between stages")
    m = len(stations)
    n = n_accelerators
    n_batches = iterations * n
    services = [st.service_time(batch_size) for st in stations]

    arrival = np.zeros(n_batches)
    for i in range(m - 1):
        arrival += services[i]
        arrival = _maxplus_scan(arrival, stations[i].servers, services[i])

    s = stations[m - 1].servers
    service = services[m - 1]
    iter_start = np.zeros(iterations)
    iter_finish = np.zeros(iterations)
    # Last `s` departures of the previous chunk, oldest first.  -inf means
    # "server never used": arrivals are non-negative, so the max with the
    # missing predecessor is a no-op, matching the scalar's 0.0 default.
    depart_tail = np.full(s, -math.inf)
    prev_finish = 0.0
    for j in range(iterations):
        lo = j * n
        blocked = np.maximum(arrival[lo : lo + n] + service, 0.0)
        jb = j - buffer_batches - 1
        if jb >= 0:
            np.maximum(blocked, iter_start[jb], out=blocked)
        work = np.concatenate([depart_tail, blocked])
        span = s
        add = service
        while span < len(work):
            np.maximum(work[span:], work[:-span] + add, out=work[span:])
            span *= 2
            add *= 2
        depart_tail = work[-s:].copy()
        iter_start[j] = max(work[-1], prev_finish)
        prev_finish = iter_finish[j] = iter_start[j] + iteration_time

    _emit_iterations(iter_start, iter_finish)
    makespan = float(iter_finish[-1])
    throughput = _throughput_from_finish(
        iter_finish, iterations, n, batch_size
    )
    # Deterministic service: every batch costs exactly its service time,
    # so busy time is n_batches · S per station — same sum the scalar
    # solver accumulates.
    utilization = {
        st.name: n_batches * services[i] / (makespan * st.servers)
        for i, st in enumerate(stations)
    }
    return DesResult(
        throughput=float(throughput),
        iterations=iterations,
        makespan=makespan,
        resource_utilization=utilization,
        stations=tuple(stations),
        trace=None,
        **_normalized_fields(stations, n_accelerators, batch_size, iteration_time),
    )


def run_pipeline(
    stations: Sequence[Station],
    n_accelerators: int,
    batch_size: int,
    iteration_time: float,
    iterations: int,
    buffer_batches: int = 4,
    jitter: float = 0.0,
    seed: int = 0,
    record_trace: bool = False,
) -> DesResult:
    """Simulate ``iterations`` synchronous iterations.

    Per-accelerator batches flow through the tandem stations; iteration
    ``j`` starts once all its ``n`` batches are delivered and iteration
    ``j-1`` finished, then takes ``iteration_time`` (compute + sync).
    ``jitter`` multiplies every service time by a lognormal factor with
    the given coefficient of variation.

    Deterministic runs dispatch to the vectorized solver, tracer or
    not; jitter (whose RNG draw order is defined by the scalar loop) and
    ``record_trace`` (the per-batch station event stream) use
    :func:`run_pipeline_reference`.
    """
    obs.inc("engine.des.runs")
    obs.inc("engine.des.batches", iterations * n_accelerators)
    with obs.span(
        "des.run_pipeline", cat="engine",
        stations=len(stations), iterations=iterations,
    ):
        if jitter <= 0 and not record_trace:
            result = _run_pipeline_vectorized(
                stations,
                n_accelerators,
                batch_size,
                iteration_time,
                iterations,
                buffer_batches=buffer_batches,
            )
        else:
            result = run_pipeline_reference(
                stations,
                n_accelerators,
                batch_size,
                iteration_time,
                iterations,
                buffer_batches=buffer_batches,
                jitter=jitter,
                seed=seed,
                record_trace=record_trace,
            )
    obs.observe("engine.des.throughput", result.throughput)
    return result


def simulate_des(
    scenario: TrainingScenario,
    server: Optional[ServerModel] = None,
    iterations: int = 60,
    buffer_batches: int = 4,
    jitter: float = 0.0,
    seed: int = 0,
    record_trace: bool = False,
) -> DesResult:
    """Build the scenario's server and run the batch-level DES.

    ``record_trace=True`` runs the reference solver, keeps its event
    stream on ``DesResult.trace`` and replays each station busy interval
    onto an active tracer's ``des`` track; the default run records no
    stream and emits only the ``iteration`` spans.
    """
    hw = scenario.hw or HardwareConfig()
    if server is None:
        with obs.span("des.build_server", cat="engine"):
            server = build_server(
                scenario.arch,
                scenario.n_accelerators,
                hw=hw,
                pool_size=scenario.pool_size,
            )
    with obs.span("des.price_demand", cat="engine"):
        demand = build_demand_cached(server, scenario.workload)
        _, rates = prep_capacity_cached(server, scenario.workload)
    # Device-granular service where the stage is an array of devices.
    counts = {
        "prep_compute": demand.n_prep_devices + demand.n_pool_devices,
        "ssd": len(server.ssd_ids),
        "accelerator_ingest": server.n_accelerators,
    }
    stations = _stations_from_rates(rates, server_counts=counts)

    batch = scenario.batch_size or scenario.workload.batch_size
    if scenario.accelerator == "tpu":
        spec = scenario.workload.accelerator_spec()
    else:
        spec = scenario.workload.legacy_accelerator_spec()
    sync_model = make_sync_model(
        scenario.arch.sync,
        scenario.fabric_bandwidth or hw.accelerator_fabric_bandwidth,
    )
    iteration_time = spec.compute_time(batch) + sync_model.time(
        scenario.n_accelerators, scenario.workload.model_bytes
    )
    # Stations serve per-accelerator batches; their rates are aggregate,
    # which the station abstraction already captures (one batch in
    # service at a time at the aggregate rate ≡ perfectly shared stage).
    result = run_pipeline(
        stations,
        scenario.n_accelerators,
        batch,
        iteration_time,
        iterations,
        buffer_batches=buffer_batches,
        jitter=jitter,
        seed=seed,
        record_trace=record_trace,
    )
    result = dataclasses.replace(
        result,
        workload_name=scenario.workload.name,
        arch_name=scenario.arch.name,
    )
    tracer = obs.current_tracer()
    if tracer is not None and result.trace is not None:
        for event in result.trace:
            if event.kind == "station":
                tracer.add_model_span(
                    event.name,
                    event.start,
                    event.end,
                    cat="station",
                    track="des",
                    batch=event.index,
                )
    return result
