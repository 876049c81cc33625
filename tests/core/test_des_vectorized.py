"""Golden pin: the vectorized DES solver against the scalar reference.

The vectorized path replaces the batch-at-a-time recursion with max-plus
prefix scans; its correctness argument (blocking invariance under
deterministic service) is only trusted because this suite holds across
bottleneck positions, multi-server stations, buffer depths and scales.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core.analytical import TrainingScenario
from repro.core.config import ArchitectureConfig
from repro.core.des import (
    Station,
    run_pipeline,
    run_pipeline_reference,
    simulate_des,
)
from repro.workloads.registry import get_workload

#: Station rate layouts covering every bottleneck position.
RATE_LAYOUTS = (
    (100.0,),
    (100.0, 50.0),
    (50.0, 100.0),
    (100.0, 30.0, 200.0),
    (200.0, 100.0, 30.0),
    (500.0, 10.0, 500.0, 10.0, 500.0),
)


def _stations(rates, servers_pattern):
    return [
        Station(f"s{i}", rate / servers, servers=servers)
        for i, (rate, servers) in enumerate(zip(rates, servers_pattern))
    ]


@pytest.mark.parametrize("rates", RATE_LAYOUTS)
@pytest.mark.parametrize("n_accelerators", [1, 3, 16])
@pytest.mark.parametrize("buffer_batches", [1, 4])
def test_vectorized_matches_reference(rates, n_accelerators, buffer_batches):
    for servers_pattern, iterations, iteration_time in itertools.product(
        (
            [1] * len(rates),
            [1 + (i % 3) for i in range(len(rates))],
        ),
        (3, 40),
        (0.0005, 2.0),
    ):
        stations = _stations(rates, servers_pattern)
        ref = run_pipeline_reference(
            stations, n_accelerators, 32, iteration_time, iterations,
            buffer_batches=buffer_batches,
        )
        vec = run_pipeline(
            stations, n_accelerators, 32, iteration_time, iterations,
            buffer_batches=buffer_batches,
        )
        assert vec.throughput == pytest.approx(ref.throughput, rel=1e-9)
        assert vec.makespan == pytest.approx(ref.makespan, rel=1e-9)
        assert vec.iterations == ref.iterations
        assert vec.stations == ref.stations
        for name, util in ref.resource_utilization.items():
            assert vec.resource_utilization[name] == pytest.approx(
                util, rel=1e-9, abs=1e-12
            )


def test_simulate_des_uses_vectorized_path_consistently():
    """End-to-end: the full scenario pipeline agrees across solvers."""
    for arch in (ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()):
        scenario = TrainingScenario(get_workload("Resnet-50"), arch, 16)
        fast = simulate_des(scenario, iterations=30)
        traced = simulate_des(scenario, iterations=30, record_trace=True)
        assert fast.trace is None
        assert traced.trace is not None  # record_trace forces the reference
        assert fast.throughput == pytest.approx(traced.throughput, rel=1e-9)
        assert fast.makespan == pytest.approx(traced.makespan, rel=1e-9)


def test_tracer_keeps_the_vectorized_solver():
    """A tracer adds one iteration span per simulated iteration and
    changes nothing else; station spans need an explicit record_trace."""
    scenario = TrainingScenario(
        get_workload("Resnet-50"), ArchitectureConfig.trainbox(), 8
    )
    plain = simulate_des(scenario, iterations=20)
    tracer = obs.Tracer()
    with obs.session(tracer=tracer):
        traced = simulate_des(scenario, iterations=20)
    assert traced == plain  # bit-identical, no event stream
    spans = tracer.model_spans(track="des")
    assert [s.name for s in spans] == ["iteration"] * 20
    assert [s.args["index"] for s in spans] == list(range(20))
    assert spans[-1].end == plain.makespan

    recorded = obs.Tracer()
    with obs.session(tracer=recorded):
        reference = simulate_des(scenario, iterations=20, record_trace=True)
    iterations = recorded.model_spans(cat=obs.ITERATION_CATEGORY)
    stations = recorded.model_spans(cat="station")
    assert len(iterations) == 20
    assert len(stations) == sum(e.kind == "station" for e in reference.trace)


def test_jitter_dispatches_to_reference():
    """Jittered runs must replay the scalar RNG draw order exactly."""
    stations = _stations((100.0, 50.0), (1, 2))
    a = run_pipeline(stations, 4, 32, 0.05, 20, jitter=0.3, seed=7)
    b = run_pipeline_reference(stations, 4, 32, 0.05, 20, jitter=0.3, seed=7)
    assert a.throughput == b.throughput
    assert a.makespan == b.makespan


def test_vectorized_is_deterministic():
    stations = _stations((100.0, 30.0, 200.0), (2, 1, 3))
    runs = [
        run_pipeline(stations, 8, 32, 0.01, 25).throughput for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_desresult_to_from_dict_roundtrip():
    stations = _stations((100.0, 50.0), (1, 2))
    result = run_pipeline(stations, 4, 32, 0.05, 20)
    clone = type(result).from_dict(result.to_dict())
    assert clone.throughput == result.throughput
    assert clone.makespan == result.makespan
    assert clone.resource_utilization == result.resource_utilization
    assert clone.stations == result.stations
    assert clone.trace is None
