"""The vectorized sweep kernel: bit-identity, dispatch, tracing.

The golden grid spans every Table I workload × every architecture
family × every sync strategy × scales from 1 to 256 — the batch kernel
must reproduce the scalar engine bit for bit over all of it.  It is the
one route for analytical points: every alias, accelerator and sync
strategy takes it, with or without an active tracer.
"""

import dataclasses

import pytest

from repro import api, obs
from repro.cache import ResultCache, fingerprint
from repro.core import analytical_batch as ab
from repro.core import sweeps as sweeps_mod
from repro.core.config import ArchitectureConfig, SyncStrategy
from repro.core.sweeps import SweepPoint, SweepSpec, evaluate_point, run_sweep
from repro.errors import SimulationError
from repro.workloads.registry import (
    EXTENSION_WORKLOADS,
    TABLE_I,
    get_workload,
)

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
    results = ab.evaluate_grid(points)
    assert len(results) == len(points)
    for point, batched in zip(points, results):
        scalar = evaluate_point(point)
        where = (point.workload.name, point.arch.name, point.scale)
        assert batched == scalar, where
        assert fingerprint(batched.to_dict()) == fingerprint(
            scalar.to_dict()
        ), where


def test_every_sync_strategy_has_a_closed_form():
    assert set(ab._SYNC_FORMS) == set(SyncStrategy)


def test_every_alias_and_accelerator_takes_the_kernel():
    """Table I and extension workloads × every facade alias × both
    accelerators: every point is kernel-priced and matches the scalar
    oracle bit for bit."""
    workloads = tuple(TABLE_I.values()) + tuple(EXTENSION_WORKLOADS.values())
    points = [
        dataclasses.replace(point, accelerator=accelerator)
        for accelerator in ("tpu", "legacy-gpu")
        for point in SweepSpec(
            workloads=workloads,
            archs=tuple(api.ARCHS.values()),
            scales=(1, 8, 64),
        ).points()
    ]
    batched = run_sweep(points)
    scalar = run_sweep(points, batch=False)
    assert batched.dispatch == ("batch",) * len(points)
    assert batched.batch_points == len(points)
    assert batched.batch_fallbacks == 0
    assert batched.results == scalar.results
    assert [fingerprint(r.to_dict()) for r in batched.results] == [
        fingerprint(r.to_dict()) for r in scalar.results
    ]


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


def test_endpoint_invariant_violation_raises_simulation_error(monkeypatch):
    """A workload whose flow endpoints differ from the server's shared
    sequence must raise, not price against the wrong incidence; the
    service's entry isolates it as that point's error."""
    from repro.core.server import build_server_cached

    arch = ArchitectureConfig.trainbox()
    server = build_server_cached(arch, 8)
    ab.flow_incidence(server, RESNET)  # prime the shared endpoint arrays

    demand, specs = ab.build_demand_lite(server, TF_AA)
    tampered = [(dst, src, vol, label) for src, dst, vol, label in specs]
    real_lite = ab._lite_demand

    def lite(srv, wl):
        if srv is server and wl is TF_AA:
            return demand, tampered
        return real_lite(srv, wl)

    monkeypatch.setattr(ab, "_lite_demand", lite)
    for key in (("flow_incidence", TF_AA.name), ("batch_prep", TF_AA.name)):
        monkeypatch.delitem(server.derived, key, raising=False)
    with pytest.raises(SimulationError, match="flow endpoints vary"):
        ab.flow_incidence(server, TF_AA)

    bad = SweepPoint(TF_AA, arch, 8)
    good = SweepPoint(RESNET, arch, 8)
    with pytest.raises(SimulationError, match="flow endpoints vary"):
        ab.evaluate_grid([good, bad])
    results, errors = ab.evaluate_points([bad, good])
    assert results[0] is None
    assert isinstance(errors[0], SimulationError)
    assert "flow endpoints vary" in str(errors[0])
    assert errors[1] is None
    assert results[1] == evaluate_point(good)


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



# -- tracing never changes the route --------------------------------------


#: DES iterations per traced DES point (one ``iteration`` span each).
DES_ITERATIONS = 20


def _traced_grid():
    analytical = SweepSpec(
        workloads=(RESNET, TF_AA),
        archs=(ArchitectureConfig.baseline(), ArchitectureConfig.trainbox()),
        scales=(1, 4, 64),
    ).points()
    trainbox = ArchitectureConfig.trainbox()
    flow = [
        SweepPoint(RESNET, trainbox, scale, engine="flow") for scale in (2, 4)
    ]
    des = [
        SweepPoint(
            RESNET, trainbox, scale, engine="des",
            des_iterations=DES_ITERATIONS,
        )
        for scale in (8, 16)
    ]
    return analytical + flow + des, len(analytical), len(des)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_traced_sweep_equals_untraced(n_jobs):
    points, n_analytical, n_des = _traced_grid()
    n_scalar = len(points) - n_analytical
    untraced = run_sweep(points, n_jobs=n_jobs, metrics=True)
    tracer = obs.Tracer()
    with obs.session(tracer=tracer):
        traced = run_sweep(points, n_jobs=n_jobs, metrics=True)
    assert traced.results == untraced.results
    assert traced.dispatch == untraced.dispatch
    assert traced.dispatch[:n_analytical] == ("batch",) * n_analytical
    assert traced.batch_points == untraced.batch_points == n_analytical
    assert traced.batch_fallbacks == untraced.batch_fallbacks == n_scalar
    assert traced.manifest == untraced.manifest
    # One steady-state iteration span per kernel-priced point and per
    # flow point, and one per simulated iteration of each DES point —
    # for the per-point remainder only when the parent priced it itself
    # (spans recorded in pool workers never reach the caller's tracer).
    in_process = n_jobs == 1
    steady = tracer.model_spans(
        cat=obs.ITERATION_CATEGORY, track=obs.MODEL_TRACK
    )
    steady_results = traced.results[:n_analytical]
    if in_process:
        steady_results += traced.results[n_analytical:-n_des]
    throughputs = sorted(span.args["throughput"] for span in steady)
    assert throughputs == sorted(r.throughput for r in steady_results)
    des_spans = tracer.model_spans(cat=obs.ITERATION_CATEGORY, track="des")
    assert len(des_spans) == (n_des * DES_ITERATIONS if in_process else 0)
    assert not tracer.model_spans(cat="station")


# -- evaluate_points: the ragged, error-isolating entry ----------------------


def test_evaluate_points_isolates_invalid_scenarios():
    good = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 64)
    bad = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4, batch_size=-1)
    results, errors = ab.evaluate_points([good, bad])
    assert errors[0] is None
    assert results[0] == evaluate_point(good)
    assert results[1] is None
    assert isinstance(errors[1], ab.ConfigError)
    # The captured exception is the one the scalar engine raises.
    with pytest.raises(ab.ConfigError) as scalar_exc:
        evaluate_point(bad)
    assert str(errors[1]) == str(scalar_exc.value)


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
    results, errors = ab.evaluate_points([bad, good])
    assert isinstance(errors[0], ab.SimulationError)
    assert "non-positive prep rate" in str(errors[0])
    assert results[0] is None
    # The batch-mate still priced, bit-identical to the scalar engine.
    assert errors[1] is None
    assert results[1] == evaluate_point(good)

    # The grid entry keeps its raising contract for the same input.
    with pytest.raises(ab.SimulationError):
        ab.evaluate_grid([bad, good])


def test_evaluate_grid_raises_on_invalid_scenarios():
    bad = SweepPoint(RESNET, ArchitectureConfig.trainbox(), 4, batch_size=-1)
    with pytest.raises(ab.ConfigError):
        ab.evaluate_grid([bad])
