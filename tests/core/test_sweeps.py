"""The sweep engine: ordering, engines, caching, parallel equivalence."""

import pytest

from repro.cache import ResultCache
from repro.core import sweeps as sweeps_mod
from repro.core.config import ArchitectureConfig
from repro.core.results import SimulationResult
from repro.core.scaleout import ScaleOutResult
from repro.core.sweeps import (
    SCALE_LADDER,
    SweepPoint,
    SweepSpec,
    cache_key,
    evaluate_point,
    figure21_spec,
    parallel_map,
    run_sweep,
)
from repro.errors import ConfigError
from repro.workloads.registry import get_workload

RESNET = get_workload("Resnet-50")
TF_SR = get_workload("Transformer-SR")


@pytest.fixture
def tiny_spec():
    return SweepSpec(
        workloads=(RESNET, TF_SR),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 4),
    )


def test_points_are_workload_major_and_deterministic(tiny_spec):
    points = tiny_spec.points()
    assert len(points) == 8
    assert [p.workload.name for p in points[:4]] == ["Resnet-50"] * 4
    assert [(p.arch.name, p.scale) for p in points[:4]] == [
        ("baseline", 1), ("baseline", 4), ("trainbox", 1), ("trainbox", 4)
    ]
    assert points == tiny_spec.points()


def test_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(workloads=(), archs=(ArchitectureConfig.baseline(),))
    with pytest.raises(ConfigError):
        SweepPoint(RESNET, ArchitectureConfig.baseline(), 4, engine="nope")
    with pytest.raises(ConfigError):
        SweepPoint(RESNET, None, 4, engine="analytical")
    with pytest.raises(ConfigError):
        run_sweep([SweepPoint(RESNET, ArchitectureConfig.baseline(), 1)], n_jobs=0)


def test_serial_matches_single_point_evaluation(tiny_spec):
    outcome = run_sweep(tiny_spec)
    for point, result in outcome:
        assert result == evaluate_point(point)


def test_parallel_equals_serial_bit_for_bit(tiny_spec):
    serial = run_sweep(tiny_spec, n_jobs=1)
    parallel = run_sweep(tiny_spec, n_jobs=2)
    assert serial.points == parallel.points
    assert serial.results == parallel.results


def test_cache_roundtrip_is_identical(tiny_spec, tmp_path):
    cache = ResultCache(tmp_path)
    first = run_sweep(tiny_spec, cache=cache)
    assert first.cache_misses == len(first.points)
    assert first.cache_hits == 0
    second = run_sweep(tiny_spec, cache=ResultCache(tmp_path))
    assert second.cache_hits == len(second.points)
    assert second.cache_misses == 0
    assert second.results == first.results


def test_cache_keys_differ_across_axes():
    keys = {
        cache_key(p)
        for p in SweepSpec(
            workloads=(RESNET, TF_SR),
            archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
            scales=(1, 4, 16),
        ).points()
    }
    assert len(keys) == 12


def test_cache_key_normalizes_default_overrides():
    from repro.core.config import HardwareConfig

    a = SweepPoint(RESNET, ArchitectureConfig.baseline(), 4)
    b = SweepPoint(RESNET, ArchitectureConfig.baseline(), 4, hw=HardwareConfig())
    assert cache_key(a) == cache_key(b)
    # ...but engine parameters that matter do change the key.
    c = SweepPoint(RESNET, ArchitectureConfig.baseline(), 4, engine="des")
    d = SweepPoint(
        RESNET, ArchitectureConfig.baseline(), 4, engine="des", des_iterations=10
    )
    assert cache_key(c) != cache_key(d)
    assert cache_key(a) != cache_key(c)


def test_des_engine_roundtrip(tmp_path):
    points = [
        SweepPoint(
            RESNET, ArchitectureConfig.trainbox(), 4,
            engine="des", des_iterations=20,
        )
    ]
    computed = run_sweep(points, cache=ResultCache(tmp_path))
    cached = run_sweep(points, cache=ResultCache(tmp_path))
    assert cached.cache_hits == 1
    a, b = computed.results[0], cached.results[0]
    assert a.throughput == b.throughput
    assert a.makespan == b.makespan
    assert a.resource_utilization == b.resource_utilization
    assert a.stations == b.stations


def test_scaleout_engine(tmp_path):
    spec = SweepSpec(
        workloads=(RESNET,), archs=(None,), scales=(1, 4), engine="scaleout"
    )
    outcome = run_sweep(spec, cache=ResultCache(tmp_path))
    assert all(isinstance(r, ScaleOutResult) for r in outcome.results)
    again = run_sweep(spec, cache=ResultCache(tmp_path))
    assert again.cache_hits == 2
    assert again.results == outcome.results


def test_outcome_lookup_helpers(tiny_spec):
    outcome = run_sweep(tiny_spec)
    keyed = outcome.by_key()
    assert isinstance(keyed[("Resnet-50", "trainbox", 4)], SimulationResult)
    curve = outcome.curve("Resnet-50", "baseline")
    assert [r.n_accelerators for r in curve] == [1, 4]


def test_figure21_spec_shape():
    spec = figure21_spec()
    assert spec.scales == SCALE_LADDER
    assert len(spec.points()) == 2 * 5 * len(SCALE_LADDER)


def _double(x):
    return 2 * x


def test_parallel_map_matches_serial():
    items = list(range(7))
    assert parallel_map(_double, items, n_jobs=1) == [2 * i for i in items]
    assert parallel_map(_double, items, n_jobs=3) == [2 * i for i in items]
    with pytest.raises(ConfigError):
        parallel_map(_double, items, n_jobs=0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs the map serially and
    records the worker count and chunk size it was offered."""

    calls = []

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        _RecordingPool.calls.append((self.max_workers, chunksize))
        return [fn(item) for item in items]


@pytest.mark.parametrize(
    "n_items, n_jobs, expected",
    [(6, 8, (6, 1)), (7, 2, (2, 4)), (6, 3, (3, 2)), (2, 2, (2, 1))],
)
def test_parallel_map_gives_each_worker_one_chunk(
    monkeypatch, n_items, n_jobs, expected
):
    # Workers never outnumber items, and the items split into one
    # contiguous chunk per worker.
    monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    items = list(range(n_items))
    assert parallel_map(_double, items, n_jobs=n_jobs) == [2 * i for i in items]
    assert _RecordingPool.calls == [expected]
    workers, chunksize = expected
    assert -(-n_items // chunksize) == workers
