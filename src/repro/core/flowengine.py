"""The fluid-flow engine: transient PCIe pricing for a full scenario.

The analytical engine prices the PCIe fabric with the steady-state
busiest-link law, which assumes perfect pipelining of every per-sample
flow.  This engine instead *simulates* one global batch's transfer set —
every per-sample flow scaled to ``n_accelerators × batch`` samples,
launched concurrently — through the max-min fair fluid simulator
(:mod:`repro.pcie.flowsim`), and replaces the analytical PCIe rate with
the simulated one.  Every other preparation resource keeps its
analytical price, and the consume side (compute + sync) is identical, so
the engines agree exactly when max-min fairness reproduces the
busiest-link bound and diverge precisely where transient contention
matters.

The result is a :class:`~repro.core.results.FlowResult`, satisfying the
same :class:`~repro.core.results.SimulationOutcome` interface as the
other engines.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import obs
from repro.core.analytical import (
    TrainingScenario,
    make_sync_model,
    prep_capacity_cached,
)
from repro.core.config import HardwareConfig
from repro.core.dataflow import build_demand_cached
from repro.core.results import FlowResult
from repro.core.server import ServerModel, build_server
from repro.errors import ConfigError
from repro.pcie.flowsim import FlowSimulator, Transfer


def global_batch_transfers(demand, n_samples: int):
    """The scenario's per-sample PCIe flow set scaled to one global
    batch of ``n_samples`` samples, as concurrent fluid transfers."""
    transfers = []
    for flow in demand.pcie_flows:
        if flow.volume <= 0 or flow.src == flow.dst:
            continue
        transfers.append(
            Transfer(
                src=flow.src,
                dst=flow.dst,
                volume=flow.volume * n_samples,
                demand=flow.demand,
                label=flow.label,
            )
        )
    return transfers


def simulate_flow(
    scenario: TrainingScenario, server: Optional[ServerModel] = None
) -> FlowResult:
    """Run the fluid-flow engine for one scenario."""
    workload = scenario.workload
    hw = scenario.hw or HardwareConfig()
    if server is None:
        with obs.span("flow.build_server", cat="engine"):
            server = build_server(
                scenario.arch,
                scenario.n_accelerators,
                hw=hw,
                pool_size=scenario.pool_size,
            )
    elif server.n_accelerators != scenario.n_accelerators:
        raise ConfigError(
            f"server has {server.n_accelerators} accelerators, scenario "
            f"wants {scenario.n_accelerators}"
        )

    with obs.span("flow.price_demand", cat="engine"):
        demand = build_demand_cached(server, workload)
        _, resource_rates = prep_capacity_cached(server, workload)

    batch = scenario.batch_size or workload.batch_size
    n_samples = scenario.n_accelerators * batch
    transfers = global_batch_transfers(demand, n_samples)
    with obs.span("flow.fluid_pcie", cat="engine", transfers=len(transfers)):
        if transfers:
            makespan = FlowSimulator(server.topology).makespan(transfers)
        else:
            makespan = 0.0
    fluid_pcie_rate = n_samples / makespan if makespan > 0 else math.inf
    resource_rates["pcie"] = fluid_pcie_rate
    prep_rate = min(resource_rates.values())

    with obs.span("flow.solve", cat="engine"):
        if scenario.accelerator == "tpu":
            spec = workload.accelerator_spec()
        else:
            spec = workload.legacy_accelerator_spec()
        compute_time = spec.compute_time(batch)
        fabric = scenario.fabric_bandwidth or hw.accelerator_fabric_bandwidth
        sync_model = make_sync_model(scenario.arch.sync, fabric)
        sync_time = sync_model.time(
            scenario.n_accelerators, workload.model_bytes
        )
        consume_rate = (
            scenario.n_accelerators * batch / (compute_time + sync_time)
        )
        throughput = min(prep_rate, consume_rate)
        if prep_rate < consume_rate:
            bottleneck = min(resource_rates, key=resource_rates.get)
        else:
            bottleneck = "accelerator"

    result = FlowResult(
        workload_name=workload.name,
        arch_name=scenario.arch.name,
        n_accelerators=scenario.n_accelerators,
        batch_size=batch,
        throughput=throughput,
        prep_rate=prep_rate,
        consume_rate=consume_rate,
        bottleneck=bottleneck,
        compute_time=compute_time,
        sync_time=sync_time,
        pcie_makespan=makespan,
        n_transfers=len(transfers),
        resource_rates=resource_rates,
    )
    obs.inc("engine.flow.runs")
    obs.inc("engine.flow.transfers", len(transfers))
    obs.observe("engine.flow.throughput", throughput)
    tracer = obs.current_tracer()
    if tracer is not None:
        from repro.core.analytical import emit_iteration_trace

        emit_iteration_trace(tracer, result)
    return result
