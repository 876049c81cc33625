"""The vectorized sweep kernel: bit-identity, fallbacks, dispatch.

The golden grid spans every Table I workload × every architecture
family × every sync strategy × scales from 1 to 256 — the batch kernel
must reproduce the scalar engine bit for bit over all of it, and every
inapplicable point must demote to the scalar engine rather than price
wrong.
"""

import dataclasses

import pytest

from repro import obs
from repro.cache import ResultCache, fingerprint
from repro.core import analytical_batch as ab
from repro.core import sweeps as sweeps_mod
from repro.core.config import ArchitectureConfig, SyncStrategy
from repro.core.sweeps import SweepPoint, SweepSpec, evaluate_point, run_sweep
from repro.workloads.registry import TABLE_I, get_workload

RESNET = get_workload("Resnet-50")
TF_AA = get_workload("Transformer-AA")


def _golden_points():
    """Every workload × arch family × sync strategy × 1–256 accels."""
    families = (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.baseline_acc(),
        ArchitectureConfig.baseline_acc_p2p(),
        ArchitectureConfig.baseline_acc_p2p_gen4(),
        ArchitectureConfig.trainbox(),
    )
    archs = tuple(
        dataclasses.replace(arch, name=f"{arch.name}+{sync.value}", sync=sync)
        for arch in families
        for sync in SyncStrategy
    )
    return SweepSpec(
        workloads=tuple(TABLE_I.values()), archs=archs, scales=(1, 2, 16, 256)
    ).points()


def test_golden_grid_is_bit_identical_to_the_scalar_engine():
    points = _golden_points()
    results, reasons = ab.evaluate_grid(points)
    assert reasons == ["batch"] * len(points)
    for point, batched in zip(points, results):
        scalar = evaluate_point(point)
        where = (point.workload.name, point.arch.name, point.scale)
        assert batched == scalar, where
        assert fingerprint(batched.to_dict()) == fingerprint(
            scalar.to_dict()
        ), where


def test_run_sweep_batch_matches_scalar_and_labels_dispatch():
    spec = SweepSpec(
        workloads=(RESNET, TF_AA),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 4, 64),
    )
    batched = run_sweep(spec, batch=True)
    scalar = run_sweep(spec, batch=False)
    assert batched.results == scalar.results
    assert batched.batch_points == len(spec.points())
    assert batched.batch_fallbacks == 0
    assert batched.dispatch == ("batch",) * len(spec.points())
    assert scalar.batch_points == 0
    assert scalar.dispatch == ("scalar (batch disabled)",) * len(spec.points())


def test_mixed_engines_demote_per_point():
    points = [
        SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4),
        SweepPoint(
            RESNET, ArchitectureConfig.trainbox(), 4,
            engine="des", des_iterations=10,
        ),
    ]
    outcome = run_sweep(points)
    assert outcome.dispatch[0] == "batch"
    assert outcome.dispatch[1].startswith("scalar (engine 'des'")
    assert outcome.batch_points == 1
    assert outcome.batch_fallbacks == 1
    assert outcome.results == run_sweep(points, batch=False).results


def test_missing_sync_form_demotes_to_scalar(monkeypatch):
    monkeypatch.delitem(ab._SYNC_FORMS, SyncStrategy.RING)
    spec = SweepSpec(
        workloads=(RESNET,),
        archs=(ArchitectureConfig.trainbox(),),  # sync defaults to RING
        scales=(1, 4),
    )
    outcome = run_sweep(spec, batch=True)
    assert outcome.batch_points == 0
    assert outcome.batch_fallbacks == len(spec.points())
    assert all(d.startswith("scalar (no closed form") for d in outcome.dispatch)
    assert outcome.results == run_sweep(spec, batch=False).results


def test_prep_pricing_demotion_falls_back_not_wrong(monkeypatch):
    def refuse(server, workload):
        raise ab.BatchInapplicable("forced demotion")

    monkeypatch.setattr(ab, "prep_rates_batch", refuse)
    spec = SweepSpec(
        workloads=(RESNET,),
        archs=(ArchitectureConfig.trainbox(),),
        scales=(1, 4),
    )
    results, reasons = ab.evaluate_grid(spec.points())
    assert results == [None, None]
    assert reasons == ["forced demotion"] * 2
    outcome = run_sweep(spec, batch=True)
    assert outcome.batch_fallbacks == 2
    assert outcome.results == run_sweep(spec, batch=False).results


def test_endpoint_invariant_violation_raises_batch_inapplicable(monkeypatch):
    """A workload whose flow endpoints differ from the server's shared
    sequence must demote, not price against the wrong incidence."""
    from repro.core.server import build_server

    server = build_server(ArchitectureConfig.trainbox(), 8)
    ab.flow_incidence(server, RESNET)  # prime the shared endpoint arrays

    demand, specs = ab.build_demand_lite(server, TF_AA)
    tampered = [(dst, src, vol, label) for src, dst, vol, label in specs]
    monkeypatch.setattr(
        ab, "_lite_demand", lambda srv, wl: (demand, tampered)
    )
    server.derived.pop(("flow_incidence", TF_AA.name), None)
    with pytest.raises(ab.BatchInapplicable):
        ab.flow_incidence(server, TF_AA)


def test_tracing_forces_full_scalar_fallback():
    points = [SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4)]
    with obs.session(tracer=obs.Tracer()):
        results, reasons = ab.evaluate_grid(points)
    assert results == [None]
    assert reasons[0].startswith("tracing active")


def test_batch_results_land_in_the_persistent_cache(tmp_path):
    spec = SweepSpec(
        workloads=(RESNET,),
        archs=(ArchitectureConfig.trainbox(),),
        scales=(1, 4),
    )
    first = run_sweep(spec, cache=ResultCache(tmp_path))
    assert first.batch_points == 2
    second = run_sweep(spec, cache=ResultCache(tmp_path))
    assert second.cache_hits == 2
    assert second.batch_points == 0
    assert second.dispatch == ("cache", "cache")
    assert second.results == first.results


def test_batch_metrics_counters():
    spec = SweepSpec(
        workloads=(RESNET, TF_AA),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 4),
    )
    outcome = run_sweep(spec, metrics=True)
    counters = outcome.manifest["counters"]
    assert counters["sweep.points"] == 8
    assert counters["sweep.batch_points"] == 8
    assert counters["sweep.batch_fallbacks"] == 0
    # 2 workloads × 2 distinct (arch, scale) servers... each priced once.
    assert counters["sweep.batch_compile"] == 8


class _ForbiddenPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("an all-hits sweep must not construct a pool")


def test_all_cache_hit_grid_never_spawns_the_pool(monkeypatch, tmp_path):
    spec = SweepSpec(
        workloads=(RESNET,),
        archs=(ArchitectureConfig.baseline(),),
        scales=(1, 2, 4),
    )
    run_sweep(spec, cache=ResultCache(tmp_path))  # populate
    monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor", _ForbiddenPool)
    outcome = run_sweep(
        spec, n_jobs=4, cache=ResultCache(tmp_path), batch=False
    )
    assert outcome.cache_hits == len(spec.points())
    assert outcome.dispatch == ("cache",) * len(spec.points())


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs the map serially and
    records the worker count it was offered."""

    calls = []

    def __init__(self, max_workers=None):
        _RecordingPool.calls.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


def test_workers_capped_by_chunk_count(monkeypatch):
    monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    spec = SweepSpec(
        workloads=(RESNET,),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 2, 4),
    )
    # 6 points in chunks of 3 → only 2 workers are worth spawning.
    run_sweep(spec, n_jobs=8, chunksize=3, batch=False)
    assert _RecordingPool.calls == [2]


# -- evaluate_points: the ragged, deduplicating, error-isolating entry --------


def _evaluate_points(points):
    """``evaluate_points`` with each point's result cache key, as the
    service's batch dispatch passes them."""
    return ab.evaluate_points(points, [sweeps_mod.cache_key(p) for p in points])


def test_evaluate_points_dedups_on_cache_key():
    point = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 64)
    other = SweepPoint(RESNET, ArchitectureConfig.baseline(), 4)
    # The same scenario spelled twice via distinct point objects.
    twin = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 64)
    results, reasons, errors = _evaluate_points([point, other, twin])
    assert errors == [None, None, None]
    assert reasons == ["batch"] * 3
    assert results[0] is results[2]  # duplicates share the result object
    for p, r in zip((point, other), results):
        scalar = evaluate_point(p)
        assert r == scalar
        assert fingerprint(r.to_dict()) == fingerprint(scalar.to_dict())
    # The dedup trusts the supplied keys: points given one key share
    # one result.
    shared, _, _ = ab.evaluate_points([point, other], ["k", "k"])
    assert shared[0] is shared[1]


def test_evaluate_points_isolates_invalid_scenarios():
    good = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 64)
    bad = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4, batch_size=-1)
    results, reasons, errors = _evaluate_points([good, bad])
    assert errors[0] is None
    assert results[0] == evaluate_point(good)
    assert results[1] is None
    assert isinstance(errors[1], ab.ConfigError)
    # The captured exception is the one the scalar engine raises.
    with pytest.raises(ab.ConfigError) as scalar_exc:
        evaluate_point(bad)
    assert str(errors[1]) == str(scalar_exc.value)
    assert reasons[1].startswith("error:")


def test_evaluate_points_isolates_degenerate_rates(monkeypatch):
    real = ab.prep_rates_batch

    def zeroed(server, workload):
        rates, link = real(server, workload)
        if workload is TF_AA:
            rates = {name: 0.0 for name in rates}
        return rates, link

    monkeypatch.setattr(ab, "prep_rates_batch", zeroed)
    good = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 64)
    bad = SweepPoint(TF_AA, ArchitectureConfig.trainbox(), 64)
    results, reasons, errors = _evaluate_points([bad, good])
    assert isinstance(errors[0], ab.SimulationError)
    assert "non-positive prep rate" in str(errors[0])
    assert results[0] is None
    # The batch-mate still priced, bit-identical to the scalar engine.
    assert errors[1] is None
    assert results[1] == evaluate_point(good)

    # The grid entry keeps its raising contract for the same input.
    with pytest.raises(ab.SimulationError):
        ab.evaluate_grid([bad, good])


def test_evaluate_points_reports_fallback_reasons_without_errors():
    des = SweepPoint(
        RESNET, ArchitectureConfig.trainbox(), 4,
        engine="des", des_iterations=10,
    )
    good = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4)
    results, reasons, errors = _evaluate_points([des, good])
    assert results[0] is None and errors[0] is None
    assert reasons[0].startswith("engine 'des'")
    assert results[1] == evaluate_point(good)


def test_evaluate_grid_raises_on_invalid_scenarios():
    bad = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4, batch_size=-1)
    with pytest.raises(ab.ConfigError):
        ab.evaluate_grid([bad])
