"""Structure-of-arrays analytical engine: whole sweep grids per pass.

The scalar solver (:mod:`repro.core.analytical`) prices one scenario per
call: route every flow with Python objects, fold link loads through a
dict, rebuild sync models point by point.  A sweep grid repeats that
work hundreds of times with only the scale/batch axes changing, so this
module evaluates the *entire* grid in a handful of NumPy float64 passes:

* **consume side** — compute time and the ring/tree/central sync closed
  forms broadcast over the scale axis as arrays;
* **prep side** — per-(server, workload) resource-rate rows stacked into
  a points × resources matrix and min-reduced per row;
* **PCIe pricing** — a per-architecture link × flow incidence structure
  (integer hop arrays over a compact routing table, memoized on the
  server next to ``build_demand_cached``'s entries) so the busiest-link
  reduction over a demand becomes one ``np.bincount`` + axis-max instead
  of per-point routing walks.

Bit-identity with the scalar engine is a hard contract, not an
approximation: every array expression mirrors the scalar operation order
elementwise (``np.bincount`` accumulates weights as the same sequential
left fold the scalar dict uses; sync forms keep the scalar grouping;
min/argmin reductions preserve the scalar first-minimal tie-breaks), and
the golden-grid tests assert fingerprint equality before any timing.

Every analytical point a sweep or a service dispatch has to compute
takes this kernel; the scalar engine stays the reference oracle
(``run_sweep(batch=False)``).  Under an active tracer the kernel still
prices every point and emits each result's model-time iteration spans,
exactly as the scalar engine does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.analytical import (
    RESOURCE_ORDER,
    TrainingScenario,
    emit_iteration_trace,
    resource_rate_table,
)
from repro.core.config import HardwareConfig, SyncStrategy
from repro.core.dataflow import build_demand_lite
from repro.core.server import ServerModel, build_server_cached
from repro.errors import ConfigError, SimulationError
from repro.core.results import SimulationResult
from repro.pcie.link import LinkDirection
from repro.sync.model import DEFAULT_STEP_LATENCY


# -- closed-form sync library (vectorized over the scale axis) ---------------
#
# Each form receives float64 arrays (n, model_bytes, fabric bandwidth)
# already filtered to n > 1 and model_bytes != 0, and must keep the exact
# operation order of the matching SyncModel.time() so results stay
# bit-identical.  Every SyncStrategy has one (a test pins it).


def _ring_form(n: np.ndarray, m: np.ndarray, bw: np.ndarray) -> np.ndarray:
    # RingSyncModel: steps * (M / n) / bw + steps * latency
    steps = 2.0 * (n - 1.0)
    return (steps * (m / n)) / bw + steps * DEFAULT_STEP_LATENCY


def _tree_form(n: np.ndarray, m: np.ndarray, bw: np.ndarray) -> np.ndarray:
    # TreeSyncModel: 2 * ceil(log2 n) * (M / bw + latency).  The depth is
    # computed per unique n with the same math.ceil/math.log2 calls the
    # scalar model makes (libm parity), then scattered.
    depth = np.empty_like(n)
    for value in np.unique(n):
        depth[n == value] = float(math.ceil(math.log2(int(value))))
    return (2.0 * depth) * (m / bw + DEFAULT_STEP_LATENCY)


def _central_form(n: np.ndarray, m: np.ndarray, bw: np.ndarray) -> np.ndarray:
    # CentralSyncModel: 2 * (n - 1) * (M / bw + latency)
    return (2.0 * (n - 1.0)) * (m / bw + DEFAULT_STEP_LATENCY)


_SYNC_FORMS = {
    SyncStrategy.RING: _ring_form,
    SyncStrategy.TREE: _tree_form,
    SyncStrategy.CENTRAL: _central_form,
}


# -- compact routing table + flow incidence ----------------------------------


@dataclass
class RoutingTable:
    """Integer-indexed view of a server's PCIe tree.

    Nodes are numbered in topology insertion order; the directed link
    above node ``i`` gets slot ``2i`` (UP) and ``2i + 1`` (DOWN), so a
    route is a tuple of slot ids and a load vector is one dense array.
    Link names are rendered lazily — only the single bottleneck slot of
    a priced demand ever needs its human-readable form.
    """

    index: Dict[str, int]
    parent: List[int]
    depth: List[int]
    bandwidth: np.ndarray
    uplinks: List[object]
    n_slots: int
    routes: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)
    _names: Dict[int, str] = field(default_factory=dict)

    def link_name(self, slot: int) -> str:
        """Human-readable directed-link name for a slot (lazily built)."""
        name = self._names.get(slot)
        if name is None:
            link = self.uplinks[slot // 2]
            direction = (
                LinkDirection.UP if slot % 2 == 0 else LinkDirection.DOWN
            )
            name = str(link.directed(direction))
            self._names[slot] = name
        return name

    def route_slots(self, src: int, dst: int) -> Tuple[int, ...]:
        """Directed-link slots of ``src -> dst``, LCA walk on int arrays.

        Hop order matches :func:`repro.pcie.routing.route`: up hops from
        the source, then down hops toward the destination.
        """
        cached = self.routes.get((src, dst))
        if cached is not None:
            return cached
        parent, depth = self.parent, self.depth
        a, b = src, dst
        up: List[int] = []
        down: List[int] = []
        while depth[a] > depth[b]:
            up.append(2 * a)
            a = parent[a]
        while depth[b] > depth[a]:
            down.append(2 * b + 1)
            b = parent[b]
        while a != b:
            up.append(2 * a)
            a = parent[a]
            down.append(2 * b + 1)
            b = parent[b]
        hops = tuple(up + down[::-1])
        self.routes[(src, dst)] = hops
        return hops


def _build_routing_table(topology) -> RoutingTable:
    nodes = list(topology.nodes())
    index = {node.node_id: i for i, node in enumerate(nodes)}
    parent = [-1] * len(nodes)
    depth = [0] * len(nodes)
    bandwidth = np.ones(2 * len(nodes), dtype=np.float64)
    uplinks: List[object] = [None] * len(nodes)
    # Insertion order guarantees parents precede children (attach()
    # requires an existing parent), so one pass fills depths.
    for node in nodes:
        i = index[node.node_id]
        parent_id = topology.parent_of(node.node_id)
        if parent_id is None:
            continue
        parent[i] = index[parent_id]
        depth[i] = depth[parent[i]] + 1
        link = topology.uplink_of(node.node_id)
        uplinks[i] = link
        bandwidth[2 * i] = bandwidth[2 * i + 1] = link.bandwidth
    return RoutingTable(
        index=index,
        parent=parent,
        depth=depth,
        bandwidth=bandwidth,
        uplinks=uplinks,
        n_slots=2 * len(nodes),
    )


def routing_table(server: ServerModel) -> RoutingTable:
    """Per-server memo of the integer routing table (built once per
    architecture instance, shared by every workload's incidence)."""
    key = ("routing_table",)
    memo = server.derived
    if key not in memo:
        memo[key] = _build_routing_table(server.topology)
    return memo[key]  # type: ignore[return-value]


@dataclass
class EndpointIncidence:
    """Per-server incidence of the PCIe flow *endpoint* sequence.

    Every dataflow builder emits the same (src, dst) sequence for a
    given server regardless of workload — the workload only scales the
    volumes — so the hop arrays are routed once per server and shared by
    every workload's :class:`FlowIncidence`.  ``hop_link[k]`` is the
    directed-link slot the ``k``-th hop loads and ``hop_flow[k]`` the
    flow it belongs to, in flow-major route order — exactly the order
    the scalar dict fold visits, which is what makes the ``bincount``
    accumulation bit-identical.  The ``ssd_*`` arrays precompute the
    per-drive accounting: which flows source from an SSD, each flow's
    compact drive index, and the drives' read bandwidths.
    """

    srcs: List[str]
    dsts: List[str]
    hop_link: np.ndarray
    hop_flow: np.ndarray
    ssd_flow: np.ndarray
    ssd_src: np.ndarray
    ssd_bandwidth: np.ndarray


def _lite_demand(server: ServerModel, workload):
    """Per-server memo of :func:`build_demand_lite` (demand + specs)."""
    key = ("demand_lite", workload.name)
    memo = server.derived
    if key not in memo:
        memo[key] = build_demand_lite(server, workload)
    return memo[key]


def _endpoint_incidence(
    server: ServerModel, table: RoutingTable, srcs: List[str], dsts: List[str]
) -> EndpointIncidence:
    key = ("flow_endpoints",)
    memo = server.derived
    if key not in memo:
        index = table.index
        hop_link: List[int] = []
        hop_flow: List[int] = []
        for f, (src, dst) in enumerate(zip(srcs, dsts)):
            if src == dst:
                continue
            slots = table.route_slots(index[src], index[dst])
            hop_link.extend(slots)
            hop_flow.extend([f] * len(slots))
        ssd_ids = server.ssd_ids
        ssd_index = {sid: k for k, sid in enumerate(ssd_ids)}
        ssd_flow = [f for f, src in enumerate(srcs) if src in ssd_index]
        memo[key] = EndpointIncidence(
            srcs=srcs,
            dsts=dsts,
            hop_link=np.asarray(hop_link, dtype=np.int64),
            hop_flow=np.asarray(hop_flow, dtype=np.int64),
            ssd_flow=np.asarray(ssd_flow, dtype=np.int64),
            ssd_src=np.asarray(
                [ssd_index[srcs[f]] for f in ssd_flow], dtype=np.int64
            ),
            ssd_bandwidth=np.asarray(
                [server.ssd_of(sid).read_bandwidth for sid in ssd_ids],
                dtype=np.float64,
            ),
        )
    return memo[key]  # type: ignore[return-value]


@dataclass
class FlowIncidence:
    """One demand's PCIe flow set: shared endpoint incidence + volumes."""

    endpoints: EndpointIncidence
    volumes: np.ndarray

    @property
    def hop_link(self) -> np.ndarray:
        return self.endpoints.hop_link

    @property
    def hop_flow(self) -> np.ndarray:
        return self.endpoints.hop_flow


def flow_incidence(
    server: ServerModel, workload, table: Optional[RoutingTable] = None
) -> FlowIncidence:
    """Per-(server, workload) memo of the demand's flow incidence.

    The endpoint sequence is verified against the server's shared hop
    arrays with whole-list comparisons (the ids are per-server interned
    strings, so these are effectively pointer checks); a mismatch means
    the endpoint invariant above no longer holds, and the pair raises
    ``SimulationError`` rather than price against the wrong incidence.
    """
    key = ("flow_incidence", workload.name)
    memo = server.derived
    if key not in memo:
        if table is None:
            table = routing_table(server)
        _, specs = _lite_demand(server, workload)
        srcs = [spec[0] for spec in specs]
        dsts = [spec[1] for spec in specs]
        ends = _endpoint_incidence(server, table, srcs, dsts)
        if srcs != ends.srcs or dsts != ends.dsts:
            raise SimulationError(
                "pcie flow endpoints vary across workloads on this server"
            )
        volumes = np.fromiter(
            (spec[2] for spec in specs),
            dtype=np.float64,
            count=len(specs),
        )
        memo[key] = FlowIncidence(endpoints=ends, volumes=volumes)
    return memo[key]  # type: ignore[return-value]


def price_pcie_incidence(
    table: RoutingTable, incidence: FlowIncidence
) -> Tuple[float, str]:
    """Per-sample PCIe time and bottleneck-link name from an incidence.

    ``np.bincount`` accumulates the hop weights as a strict sequential
    left fold per bin, which is the same addition order as the scalar
    dict accumulation in ``pcie.traffic.link_loads`` (zero-volume hops
    add exact +0.0 and cannot perturb the fold).  The tie-break for the
    busiest link replicates the scalar ``max`` over dict items: first
    maximal link in first-positive-encounter order.
    """
    if incidence.hop_link.size == 0:
        return 0.0, ""
    weights = incidence.volumes[incidence.hop_flow]
    positive = weights > 0.0
    if not positive.any():
        return 0.0, ""
    loads = np.bincount(
        incidence.hop_link, weights=weights, minlength=table.n_slots
    )
    times = loads / table.bandwidth
    worst = float(times.max())
    pos_links = incidence.hop_link[positive]
    first_seen = np.full(table.n_slots, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(
        first_seen, pos_links, np.arange(pos_links.size, dtype=np.int64)
    )
    candidates = np.flatnonzero(times == worst)
    slot = int(candidates[np.argmin(first_seen[candidates])])
    return worst, table.link_name(slot)


def _ssd_rate_incidence(
    server: ServerModel, incidence: FlowIncidence, demand
) -> float:
    """Per-drive SSD media rate from the incidence arrays.

    Mirrors the scalar per-drive accounting in ``resource_rate_table``:
    the bincount folds each drive's sourced volumes in flow order (the
    scalar dict fold; zero-volume flows add exact +0.0), and the min
    over positively-loaded drives reduces the same value set as the
    scalar generator, so the rate is bit-identical.
    """
    ends = incidence.endpoints
    if ends.ssd_flow.size:
        per_drive = np.bincount(
            ends.ssd_src,
            weights=incidence.volumes[ends.ssd_flow],
            minlength=ends.ssd_bandwidth.size,
        )
        loaded = per_drive > 0.0
        if loaded.any():
            return float((ends.ssd_bandwidth[loaded] / per_drive[loaded]).min())
    if demand.ssd_read_bytes > 0:
        return server.aggregate_ssd_bandwidth() / demand.ssd_read_bytes
    return math.inf


def prep_rates_batch(
    server: ServerModel, workload
) -> Tuple[Dict[str, float], str]:
    """Resource-rate row and PCIe bottleneck-link name for one pair.

    PCIe and the per-drive SSD accounting are priced through the
    memoized incidence; the other resources go through the same
    ``resource_rate_table`` code the scalar engine runs, so the row is
    identical by construction.
    """
    key = ("batch_prep", workload.name)
    memo = server.derived
    if key not in memo:
        table = routing_table(server)
        incidence = flow_incidence(server, workload, table)
        pcie_time, link_name = price_pcie_incidence(table, incidence)
        demand, _ = _lite_demand(server, workload)
        rates = resource_rate_table(
            server,
            demand,
            pcie_time=pcie_time,
            ssd_rate=_ssd_rate_incidence(server, incidence, demand),
        )
        memo[key] = (rates, link_name)
    return memo[key]  # type: ignore[return-value]


# -- the grid kernel ---------------------------------------------------------


def evaluate_grid(points: Sequence) -> List[SimulationResult]:
    """Price every point of a grid of analytical points in SoA passes.

    Returns one :class:`SimulationResult` per point, bit-identical to
    the scalar engine's.  Raises the same error types the scalar engine
    would for invalid scenarios (``ConfigError``) or degenerate rates
    (``SimulationError``).
    """
    results, _ = _evaluate(points, isolate=False)
    return results  # type: ignore[return-value]


def evaluate_points(
    points: Sequence,
) -> Tuple[List[Optional[SimulationResult]], List[Optional[Exception]]]:
    """Price a ragged point list, isolating each point's errors.

    The grid entry (:func:`evaluate_grid`) serves sweeps, where the
    caller controls the point set; this entry serves the service's
    cross-request batch scheduler (:mod:`repro.service.batch`), where
    the set is stitched together from whatever distinct tenants asked
    for (its single-flight table hands each work-item key to one
    dispatch, so no point repeats).  A poisoned point (invalid scenario,
    degenerate rates) must not fail its batch-mates, so the errors the
    grid entry would raise are returned instead, as the very objects
    the scalar engine would raise.

    Returns ``(results, errors)``, aligned with ``points``; each point
    has exactly one of ``results[i]`` and ``errors[i]``.
    """
    return _evaluate(points, isolate=True)


def _evaluate(
    points: Sequence, isolate: bool
) -> Tuple[List[Optional[SimulationResult]], List[Optional[Exception]]]:
    """The kernel body behind both public entries.

    ``isolate=False`` raises the first failing point's error (the grid
    contract); ``isolate=True`` records it in the returned ``errors``
    list and prices the other points.
    """
    results: List[Optional[SimulationResult]] = [None] * len(points)
    errors: List[Optional[Exception]] = [None] * len(points)

    # ---- prep side: stack per-pair rate rows into a P × R matrix -----
    priced: List[int] = []
    scenarios: List[TrainingScenario] = []
    rates_dicts: List[Dict[str, float]] = []
    pcie_links: List[str] = []
    with obs.span("sweep.batch_compile", cat="sweep", points=len(points)):
        servers: Dict[tuple, ServerModel] = {}
        pairs_priced = set()
        for i, point in enumerate(points):
            server_key = (point.arch, point.scale, point.hw, point.pool_size)
            try:
                # Scenario construction runs the scalar engine's
                # validation (positive batch size, known accelerator)
                # with identical errors.
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
                server = servers.get(server_key)
                if server is None:
                    server = servers[server_key] = build_server_cached(
                        point.arch, point.scale,
                        hw=point.hw, pool_size=point.pool_size,
                    )
                rates, link_name = prep_rates_batch(server, point.workload)
                if min(rates.values()) <= 0:  # the scalar prep_capacity check
                    raise SimulationError(f"non-positive prep rate: {rates}")
            except (ConfigError, SimulationError) as exc:
                if not isolate:
                    raise
                errors[i] = exc
                continue
            pairs_priced.add((server_key, point.workload.name))
            priced.append(i)
            scenarios.append(scenario)
            rates_dicts.append(rates)
            pcie_links.append(link_name)
        if not priced:
            return results, errors
        # Distinct (server, workload) pricing rows this grid used — a
        # per-run count (unlike memo misses, which would depend on what
        # earlier sweeps in the process already compiled and so break
        # the parallel == serial manifest guarantee).
        obs.inc("sweep.batch_compile", len(pairs_priced))
        rate_matrix = np.array(
            [[row[name] for name in RESOURCE_ORDER] for row in rates_dicts],
            dtype=np.float64,
        )

    # min-reduce per row; first-minimal argmin matches the scalar
    # min(rates, key=rates.get) because columns follow RESOURCE_ORDER.
    n_points = len(priced)
    prep_rate = rate_matrix.min(axis=1)
    bottleneck_col = rate_matrix.argmin(axis=1)

    # ---- consume side: closed forms broadcast over the scale axis ----
    n_arr = np.array([s.n_accelerators for s in scenarios], dtype=np.float64)
    batch_sizes = [
        s.batch_size or s.workload.batch_size for s in scenarios
    ]
    batch_arr = np.array(batch_sizes, dtype=np.float64)
    model_bytes = np.array(
        [s.workload.model_bytes for s in scenarios], dtype=np.float64
    )
    fabric = np.array(
        [
            s.fabric_bandwidth
            or (s.hw or HardwareConfig()).accelerator_fabric_bandwidth
            for s in scenarios
        ],
        dtype=np.float64,
    )

    compute_time = np.empty(n_points, dtype=np.float64)
    compute_memo: Dict[tuple, float] = {}
    for j, s in enumerate(scenarios):
        key = (s.workload, s.accelerator, batch_sizes[j])
        value = compute_memo.get(key)
        if value is None:
            spec = (
                s.workload.accelerator_spec()
                if s.accelerator == "tpu"
                else s.workload.legacy_accelerator_spec()
            )
            value = spec.compute_time(batch_sizes[j])
            compute_memo[key] = value
        compute_time[j] = value

    sync_time = np.zeros(n_points, dtype=np.float64)
    active = (n_arr > 1.0) & (model_bytes != 0.0)
    strategies = np.array([s.arch.sync.value for s in scenarios])
    for strategy, form in _SYNC_FORMS.items():
        mask = active & (strategies == strategy.value)
        if mask.any():
            sync_time[mask] = form(
                n_arr[mask], model_bytes[mask], fabric[mask]
            )

    consume_rate = (n_arr * batch_arr) / (compute_time + sync_time)
    throughput = np.minimum(prep_rate, consume_rate)
    prep_bound = prep_rate < consume_rate

    # ---- assembly ----------------------------------------------------
    tracer = obs.current_tracer()
    for j, i in enumerate(priced):
        scenario = scenarios[j]
        if prep_bound[j]:
            bottleneck = RESOURCE_ORDER[int(bottleneck_col[j])]
            if bottleneck == "pcie" and pcie_links[j]:
                bottleneck = f"pcie ({pcie_links[j]})"
        else:
            bottleneck = "accelerator"
        result = results[i] = SimulationResult(
            workload_name=scenario.workload.name,
            arch_name=scenario.arch.name,
            n_accelerators=scenario.n_accelerators,
            batch_size=batch_sizes[j],
            throughput=float(throughput[j]),
            prep_rate=float(prep_rate[j]),
            consume_rate=float(consume_rate[j]),
            bottleneck=bottleneck,
            compute_time=float(compute_time[j]),
            sync_time=float(sync_time[j]),
            resource_rates=dict(rates_dicts[j]),
        )
        obs.observe("engine.analytical.throughput", float(throughput[j]))
        if tracer is not None:
            emit_iteration_trace(tracer, result)
    obs.inc("engine.analytical.runs", n_points)
    return results, errors
