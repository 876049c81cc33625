"""The service chaos layer: deterministic fault decisions, healing on
resend, the fault-wrapping cache proxy, and the end-to-end drill.

The drill itself (``run_chaos_drill``) carries its own hard assertions —
bit-identity of non-faulted responses, outcome-accounting balance, a
clean drain — so the smoke here only needs to run it and check the
report shape; a violated invariant raises out of the call.
"""

import pytest

from repro import api
from repro.cache import ResultCache
from repro.errors import ConfigError
from repro.service import (
    ChaosError,
    ChaosInjector,
    ChaosResultCache,
    ServerThread,
    ServiceChaosSpec,
    ServiceClient,
    ServiceConfig,
    execute_request,
    run_chaos_drill,
)
from repro.service.chaos import FAULT_KINDS


def test_spec_decisions_are_deterministic_and_seed_keyed():
    spec = ServiceChaosSpec(seed=5)
    again = ServiceChaosSpec(seed=5)
    other = ServiceChaosSpec(seed=6)
    tokens = [f"token-{i}" for i in range(64)]
    for kind in FAULT_KINDS:
        coins = [spec.decide(kind, t) for t in tokens]
        assert coins == [again.decide(kind, t) for t in tokens]
        assert all(0.0 <= c < 1.0 for c in coins)
        # A different seed (or kind) is a different coin stream.
        assert coins != [other.decide(kind, t) for t in tokens]
    assert spec.decide("compute_error", "x") != spec.decide("disk_error", "x")


def test_spec_validates_rates_and_ordinals():
    with pytest.raises(ConfigError):
        ServiceChaosSpec(compute_error_rate=1.5)
    with pytest.raises(ConfigError):
        ServiceChaosSpec(drop_rate=-0.1)
    with pytest.raises(ConfigError):
        ServiceChaosSpec(compute_delay_ms=-1.0)
    with pytest.raises(ConfigError):
        ServiceChaosSpec(dispatch_fault_ordinals=(0, -2))


def test_first_attempt_only_faults_heal_on_resend():
    injector = ChaosInjector(ServiceChaosSpec(seed=0, compute_error_rate=1.0))
    with pytest.raises(ChaosError):
        injector.before_compute("fp-a")
    # The resend of the same fingerprint sails through.
    injector.before_compute("fp-a")
    # A different fingerprint gets its own first-attempt fault.
    with pytest.raises(ChaosError):
        injector.before_compute("fp-b")
    assert injector.snapshot()["compute_error"] == 2

    persistent = ChaosInjector(
        ServiceChaosSpec(
            seed=0, compute_error_rate=1.0, first_attempt_only=False
        )
    )
    for _ in range(3):
        with pytest.raises(ChaosError):
            persistent.before_compute("fp-a")


def test_dispatch_faults_fire_on_listed_ordinals_only():
    injector = ChaosInjector(
        ServiceChaosSpec(seed=0, dispatch_fault_ordinals=(0, 2))
    )
    with pytest.raises(ChaosError):
        injector.before_dispatch()  # ordinal 0
    injector.before_dispatch()      # ordinal 1
    with pytest.raises(ChaosError):
        injector.before_dispatch()  # ordinal 2
    injector.before_dispatch()      # ordinal 3
    assert injector.snapshot()["dispatch_error"] == 2


def test_chaos_result_cache_injects_oserror_then_delegates(tmp_path):
    injector = ChaosInjector(ServiceChaosSpec(seed=0, disk_error_rate=1.0))
    cache = ChaosResultCache(ResultCache(tmp_path), injector)
    with pytest.raises(OSError):
        cache.put("key", {"kind": "simulate"})
    cache.put("key", {"kind": "simulate"})  # second attempt heals
    with pytest.raises(OSError):
        cache.get("key")
    assert cache.get("key") == {"kind": "simulate"}
    assert len(cache) == 1
    assert injector.snapshot()["disk_error"] == 2
    # Attribute access falls through to the wrapped cache.
    assert cache.stats.stores == 1


def test_chaos_compute_fault_surfaces_as_internal_error_and_heals():
    # End-to-end: a ChaosError on the executor thread is NOT a
    # ReproError, so it exercises the broker's unexpected-exception
    # hardening — the client sees an `internal` error envelope, and the
    # resend (first_attempt_only) computes normally, bit-identically.
    # A DES point is priced on its own, where compute faults bite.
    injector = ChaosInjector(ServiceChaosSpec(seed=0, compute_error_rate=1.0))
    request = api.SimulationRequest(
        "Resnet-50", "trainbox", 16, engine="des", des_iterations=12
    )
    config = ServiceConfig(max_workers=1)
    with ServerThread(config, chaos=injector) as srv:
        with ServiceClient(*srv.address) as client:
            faulted = client.call(request)
            assert faulted["status"] == "error"
            assert faulted["error"]["code"] == "internal"
            assert "chaos" in faulted["error"]["message"]
            healed = client.call(request)
            assert healed["status"] == "ok"
            assert healed["payload"] == execute_request(request)
    assert srv.drain_report["drained"] is True


def test_chaos_drill_smoke():
    report = run_chaos_drill(n_clients=2, dup_factor=1, seed=7)
    assert report.seed == 7
    assert report.n_clients == 2
    assert report.total > 0
    assert report.ok == report.total  # every request eventually answered ok
    assert report.drain["drained"] is True
    assert report.drain["stranded"] == 0
    assert report.faults["dispatch_error"] == 3
    assert report.counters["service.requests"] > 0
    assert "drained clean" in report.summary()
