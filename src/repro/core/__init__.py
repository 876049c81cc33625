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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": (
        "Architecture",
        "ArchitectureConfig",
        "HardwareConfig",
        "PrepDevice",
        "SyncStrategy",
    ),
    "server": ("ServerModel", "build_server"),
    "dataflow": ("DataflowDemand", "build_demand"),
    "analytical": ("TrainingScenario", "simulate"),
    "des": ("simulate_des",),
    "autotune": ("AutotuneResult", "autotune"),
    "faults": ("FaultSet", "drain_box", "inject_faults"),
    "inference": ("InferenceScenario", "simulate_inference"),
    "initializer": ("TrainInitializer", "TrainPlan"),
    "rack": ("JobPlacement", "JobRequest", "TrainBoxRack"),
    "scaleout": ("ScaleOutConfig", "simulate_scaleout"),
    "resources": (
        "host_requirements",
        "latency_decomposition",
        "resource_breakdown",
    ),
    "results": ("HostRequirements", "LatencyDecomposition", "SimulationResult"),
})
