"""Metrics registry, manifest validation, and worker-merge determinism."""

import json

import pytest

from repro import obs
from repro.core.config import ArchitectureConfig
from repro.core.sweeps import SweepSpec, run_sweep
from repro.errors import ConfigError
from repro.obs.metrics import MANIFEST_SCHEMA, Histogram
from repro.workloads.registry import get_workload


# -- histograms --------------------------------------------------------------


def test_histogram_streaming_stats():
    h = Histogram()
    for v in (3.0, 1.0, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == pytest.approx(6.0)
    assert h.mean == pytest.approx(2.0)
    assert h.to_dict() == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}


def test_empty_histogram_serializes_null_bounds():
    assert Histogram().to_dict() == {
        "count": 0, "total": 0.0, "min": None, "max": None,
    }


def test_histogram_merge_ignores_empty():
    h = Histogram()
    h.observe(5.0)
    h.merge_dict({"count": 0, "total": 0.0, "min": None, "max": None})
    h.merge_dict({"count": 2, "total": 3.0, "min": 1.0, "max": 2.0})
    assert h.to_dict() == {"count": 3, "total": 8.0, "min": 1.0, "max": 5.0}


# -- registry and manifests --------------------------------------------------


def test_registry_counts_and_bool():
    reg = obs.MetricsRegistry()
    assert not reg
    reg.inc("points")
    reg.inc("points", 4)
    reg.observe("throughput", 10.0)
    assert reg
    assert reg.counters == {"points": 5}
    manifest = reg.to_manifest()
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["counters"] == {"points": 5}
    assert manifest["histograms"]["throughput"]["count"] == 1


def test_manifest_key_order_is_sorted():
    reg = obs.MetricsRegistry()
    reg.inc("zz")
    reg.inc("aa")
    reg.observe("z.h", 1.0)
    reg.observe("a.h", 1.0)
    manifest = reg.to_manifest()
    assert list(manifest["counters"]) == ["aa", "zz"]
    assert list(manifest["histograms"]) == ["a.h", "z.h"]


def test_merged_equals_single_registry():
    parts = []
    for chunk in ((1.0, 2.0), (3.0,)):
        reg = obs.MetricsRegistry()
        for v in chunk:
            reg.inc("n")
            reg.observe("v", v)
        parts.append(reg.to_manifest())
    combined = obs.MetricsRegistry.merged(parts)

    serial = obs.MetricsRegistry()
    for v in (1.0, 2.0, 3.0):
        serial.inc("n")
        serial.observe("v", v)
    assert combined.to_manifest() == serial.to_manifest()


def test_write_and_load_manifest_roundtrip(tmp_path):
    reg = obs.MetricsRegistry()
    reg.inc("points", 3)
    path = reg.write_manifest(tmp_path / "m" / "manifest.json")
    assert obs.load_manifest(path) == reg.to_manifest()
    # File is plain JSON for external tooling.
    assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA


@pytest.mark.parametrize(
    "bad",
    [
        "not a dict",
        {"schema": "wrong/9", "counters": {}, "histograms": {}},
        {"schema": MANIFEST_SCHEMA, "counters": []},
        {"schema": MANIFEST_SCHEMA, "counters": {"x": 1.5}, "histograms": {}},
        {"schema": MANIFEST_SCHEMA, "counters": {}, "histograms": {"h": {"count": -1}}},
        {
            "schema": MANIFEST_SCHEMA,
            "counters": {},
            "histograms": {"h": {"count": 1, "total": 1.0, "min": 2.0, "max": 1.0}},
        },
    ],
)
def test_validate_manifest_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        obs.validate_manifest(bad)


def test_merge_validates_first():
    reg = obs.MetricsRegistry()
    with pytest.raises(ConfigError):
        reg.merge_manifest({"schema": "nope"})
    assert not reg


# -- sweep-worker merge determinism ------------------------------------------


def _spec():
    return SweepSpec(
        workloads=(get_workload("Resnet-50"), get_workload("tf-aa")),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 4, 16),
    )


def test_parallel_and_serial_sweeps_produce_identical_manifests():
    serial = run_sweep(_spec(), n_jobs=1, metrics=True)
    parallel = run_sweep(_spec(), n_jobs=2, metrics=True)
    assert serial.manifest is not None
    assert serial.manifest["counters"]["sweep.points"] == 12
    assert parallel.manifest == serial.manifest


def test_traced_metered_sweep_exports_valid_manifest_and_chrome_trace():
    tracer = obs.Tracer()
    with obs.session(tracer=tracer):
        outcome = run_sweep(_spec(), metrics=True)
    obs.validate_manifest(outcome.manifest)
    assert outcome.manifest["counters"]["sweep.points"] == 12
    phases = {event["ph"] for event in tracer.to_chrome()["traceEvents"]}
    assert {"X", "M"} <= phases


def test_sweep_without_metrics_has_no_manifest():
    outcome = run_sweep(_spec(), n_jobs=1)
    assert outcome.manifest is None


def test_sweep_merges_into_caller_registry():
    reg = obs.MetricsRegistry()
    reg.inc("preexisting")
    outcome = run_sweep(_spec(), n_jobs=1, metrics=reg)
    assert reg.counters["preexisting"] == 1
    assert reg.counters["sweep.points"] == 12
    assert outcome.manifest == reg.to_manifest()
