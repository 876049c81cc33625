"""The paper's contribution: the TrainBox server architecture simulator.

The package stacks the substrates into the evaluation the paper runs:

* :mod:`repro.core.config` — hardware constants and the architecture
  configurations of Figure 19 (Baseline, B+Acc, B+Acc+P2P, +Gen4,
  TrainBox) plus the GPU-prep and no-pool variants of Figure 21;
* :mod:`repro.core.server` — PCIe topology builders for every
  configuration (type-grouped boxes chained from the RC for the baseline
  family, clustered train boxes for TrainBox);
* :mod:`repro.core.dataflow` — per-architecture datapaths translated into
  per-sample resource demands (CPU cycles, memory bytes, PCIe flows,
  prep-device cycles, Ethernet flows);
* :mod:`repro.core.analytical` — the steady-state throughput solver
  (training is throughput-oriented and pipelined, §VI-A, so capacity
  analysis is the paper's own methodology);
* :mod:`repro.core.des` — a batch-level discrete-event simulator that
  cross-validates the analytical engine's pipeline-overlap law;
* :mod:`repro.core.initializer` — the train initializer of §V-A
  (prep-demand estimation, prep-pool sizing, data sharding);
* :mod:`repro.core.resources` — host-resource accounting behind
  Figures 9, 10, 11 and 22.
"""

from repro.core.config import (
    Architecture,
    ArchitectureConfig,
    HardwareConfig,
    PrepDevice,
    SyncStrategy,
)
from repro.core.server import ServerModel, build_server
from repro.core.dataflow import DataflowDemand, build_demand
from repro.core.analytical import TrainingScenario, simulate
from repro.core.des import simulate_des
from repro.core.autotune import AutotuneResult, autotune
from repro.core.faults import FaultSet, drain_box, inject_faults
from repro.core.inference import InferenceScenario, simulate_inference
from repro.core.initializer import TrainInitializer, TrainPlan
from repro.core.rack import JobPlacement, JobRequest, TrainBoxRack
from repro.core.scaleout import ScaleOutConfig, simulate_scaleout
from repro.core.resources import (
    host_requirements,
    latency_decomposition,
    resource_breakdown,
)
from repro.core.results import (
    HostRequirements,
    LatencyDecomposition,
    SimulationResult,
)

__all__ = [
    "Architecture",
    "ArchitectureConfig",
    "AutotuneResult",
    "DataflowDemand",
    "FaultSet",
    "HardwareConfig",
    "HostRequirements",
    "InferenceScenario",
    "JobPlacement",
    "JobRequest",
    "LatencyDecomposition",
    "PrepDevice",
    "ServerModel",
    "ScaleOutConfig",
    "SimulationResult",
    "SyncStrategy",
    "TrainBoxRack",
    "TrainInitializer",
    "TrainPlan",
    "TrainingScenario",
    "autotune",
    "build_demand",
    "build_server",
    "drain_box",
    "host_requirements",
    "inject_faults",
    "latency_decomposition",
    "resource_breakdown",
    "simulate",
    "simulate_des",
    "simulate_inference",
    "simulate_scaleout",
]
