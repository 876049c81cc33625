"""Chaos suite: every injected fault heals to bit-identical output.

The resilience contract of ``repro.dataprep.engine``: whatever faults
chaos injects — worker crashes, hangs, lost completion messages,
transient payload corruption — the delivered batches are bit-identical
to the fault-free serial run, within the configured retry budget, with
the recovery accounted exactly in the engine's report and the ``prep.*``
obs counters.  Persistent corruption (``poison``) instead quarantines
the single bad sample with a deterministic fill, so parallel and serial
runs under the same chaos still agree bit-for-bit.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.dataprep import (
    ChaosSpec,
    PrepEngine,
    ResilienceConfig,
    corrupt_payload,
    image_pipeline,
    run_engine,
    wrap_loader,
)
from repro.dataprep import engine as engine_mod
from repro.dataprep.jpeg import codec as jpeg_codec
from repro.errors import CodecError, DataprepError, PrepWorkerCrash

_H = _W = 24
_CROP = 16
_SAMPLE_NBYTES = _CROP * _CROP * 3 * 4

#: Fast-recovery policy so the whole suite runs in seconds.
_RES = ResilienceConfig(
    shard_timeout_s=2.0,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    heartbeat_timeout_s=8.0,
)


def _blob(index):
    rng = np.random.default_rng(2000 + index)
    img = rng.integers(0, 256, (_H, _W, 3), dtype=np.uint8)
    return jpeg_codec.encode(img, quality=80)


def _loader(start, count):
    return [_blob(start + i) for i in range(count)]


def _pipe():
    return image_pipeline(out_height=_CROP, out_width=_CROP)


def _run(chaos=None, num_workers=2, resilience=_RES, seed=7, **kwargs):
    return run_engine(
        _pipe(), _loader, 20, 4, seed=seed, num_workers=num_workers,
        sample_nbytes=_SAMPLE_NBYTES, resilience=resilience, chaos=chaos,
        **kwargs,
    )


@pytest.fixture(scope="module")
def clean():
    return _run(num_workers=0, resilience=None)


def _assert_identical(batches, reference):
    assert len(batches) == len(reference)
    for a, b in zip(batches, reference):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["crash", "hang", "lose_result"])
def test_process_faults_heal_bit_identically(kind, clean):
    chaos = ChaosSpec(seed=7, **{kind: {1}})
    registry = obs.MetricsRegistry()
    with obs.session(metrics=registry):
        with PrepEngine(
            _pipe(), _loader, 20, 4, seed=7, num_workers=2,
            sample_nbytes=_SAMPLE_NBYTES, resilience=_RES, chaos=chaos,
        ) as engine:
            batches = [b.data.copy() for b in engine.batches()]
            report = engine.report
    _assert_identical(batches, clean)
    assert report.retries >= 1
    assert report.respawns >= 1
    if kind == "crash":
        assert report.worker_crashes >= 1
    else:
        # A hung worker and a stranded slot are both reclaimed by the
        # per-shard deadline.
        assert report.deadline_expiries >= 1
    assert report.shards_quarantined == 0
    assert report.samples_quarantined == 0
    counters = registry.to_manifest()["counters"]
    assert counters["prep.retries"] == report.retries
    assert counters.get("prep.respawns", 0) == report.respawns
    assert counters.get("prep.worker_crashes", 0) == report.worker_crashes
    assert (
        counters.get("prep.deadline_expiries", 0) == report.deadline_expiries
    )


def test_transient_corruption_heals_without_retries(clean):
    # A first-load glitch is healed by the engine's reload-retry inside
    # the worker: bit-identical output, no supervisor-level recovery.
    chaos = ChaosSpec(seed=7, corrupt={1})
    with PrepEngine(
        _pipe(), _loader, 20, 4, seed=7, num_workers=2,
        sample_nbytes=_SAMPLE_NBYTES, resilience=_RES, chaos=chaos,
    ) as engine:
        batches = [b.data.copy() for b in engine.batches()]
        report = engine.report
    _assert_identical(batches, clean)
    assert report.as_dict() == {k: 0 for k in report.as_dict()}


def test_poison_quarantines_one_sample_deterministically(clean):
    chaos = ChaosSpec(seed=7, poison={1})
    victim = chaos.poisoned_sample(1, 4)

    def collect(num_workers):
        with PrepEngine(
            _pipe(), _loader, 20, 4, seed=7, num_workers=num_workers,
            sample_nbytes=_SAMPLE_NBYTES, resilience=_RES, chaos=chaos,
        ) as engine:
            out = [
                (b.index, b.data.copy(), b.quarantined)
                for b in engine.batches()
            ]
            return out, engine.report

    serial, serial_report = collect(0)
    parallel, parallel_report = collect(2)
    # Parallel matches serial bit-for-bit under the same chaos: the
    # quarantine fill is deterministic.
    assert len(serial) == len(parallel)
    for (ia, da, qa), (ib, db, qb) in zip(serial, parallel):
        assert ia == ib and qa == qb
        assert np.array_equal(da, db)
    assert serial_report.samples_quarantined == 1
    assert parallel_report.samples_quarantined == 1
    by_index = {i: (d, q) for i, d, q in parallel}
    data, quarantined = by_index[1]
    assert quarantined == (victim,)
    # The fill is the deterministic zero fill; healthy samples of the
    # same batch match the clean run.
    assert not data[victim].any()
    healthy = [i for i in range(4) if i != victim]
    assert np.array_equal(data[healthy], clean[1][healthy])
    # Every other batch is untouched.
    for i, d, q in parallel:
        if i != 1:
            assert q == ()
            assert np.array_equal(d, clean[i])


def test_persistent_crash_quarantines_the_shard(clean):
    chaos = ChaosSpec(seed=7, crash={1}, first_attempt_only=False)
    registry = obs.MetricsRegistry()
    with obs.session(metrics=registry):
        with PrepEngine(
            _pipe(), _loader, 20, 4, seed=7, num_workers=2,
            sample_nbytes=_SAMPLE_NBYTES, resilience=_RES, chaos=chaos,
        ) as engine:
            batches = [b.data.copy() for b in engine.batches()]
            report = engine.report
    # The in-process reference path re-derives the same bits.
    _assert_identical(batches, clean)
    assert report.shards_quarantined == 1
    assert report.retries == _RES.max_shard_retries
    assert report.samples_quarantined == 0
    counters = registry.to_manifest()["counters"]
    assert counters["prep.shards_quarantined"] == 1


_START_DELAY_S = 2.0
_real_worker_loop = engine_mod._worker_loop


def _slow_start_worker_loop(*args):
    # Runs in the forked child: a worker process that takes longer to
    # come up than a shard may take to prepare.
    time.sleep(_START_DELAY_S)
    return _real_worker_loop(*args)


def test_slow_worker_startup_expires_no_shard(clean, monkeypatch):
    """The per-attempt deadline starts at pickup, not at dispatch: a
    worker whose start-up outlasts ``shard_timeout_s`` still delivers
    every shard on its first attempt (start-up is the heartbeat's to
    police, and its timeout is far off)."""
    res = ResilienceConfig(
        shard_timeout_s=1.0, backoff_base_s=0.01, backoff_cap_s=0.05,
        heartbeat_timeout_s=30.0,
    )
    monkeypatch.setattr(engine_mod, "_worker_loop", _slow_start_worker_loop)
    with PrepEngine(
        _pipe(), _loader, 20, 4, seed=7, num_workers=2,
        sample_nbytes=_SAMPLE_NBYTES, resilience=res, mp_context="fork",
    ) as engine:
        batches = [b.data.copy() for b in engine.batches()]
        report = engine.report
    _assert_identical(batches, clean)
    assert report.deadline_expiries == 0
    assert report.shards_quarantined == 0
    assert report.retries == 0


def test_retry_budget_exhaustion_raises(clean):
    chaos = ChaosSpec(seed=7, crash={1}, first_attempt_only=False)
    res = ResilienceConfig(
        shard_timeout_s=2.0, backoff_base_s=0.01, backoff_cap_s=0.05,
        max_total_retries=0,
    )
    with pytest.raises(PrepWorkerCrash, match="retry budget exhausted"):
        _run(chaos=chaos, resilience=res)


def test_heartbeat_timeout_must_be_zero_or_exceed_the_interval():
    # Negative would silently disable heartbeats; at or below the beat
    # interval every healthy worker reads stale between beats.
    for timeout in (-1.0, 0.1, 0.2):
        with pytest.raises(DataprepError, match="heartbeat_timeout_s"):
            ResilienceConfig(heartbeat_interval_s=0.2, heartbeat_timeout_s=timeout)
    assert ResilienceConfig(heartbeat_timeout_s=0).heartbeat_timeout_s == 0
    assert ResilienceConfig(
        heartbeat_interval_s=0.2, heartbeat_timeout_s=0.25
    ).heartbeat_timeout_s == 0.25


def test_process_chaos_requires_workers():
    for kind in ("crash", "hang", "lose_result"):
        with pytest.raises(DataprepError):
            _run(chaos=ChaosSpec(seed=7, **{kind: {0}}), num_workers=0)


def test_chaos_spec_sample_is_deterministic():
    a = ChaosSpec.sample(
        42, 100, crash_rate=0.1, hang_rate=0.1, corrupt_rate=0.2
    )
    b = ChaosSpec.sample(
        42, 100, crash_rate=0.1, hang_rate=0.1, corrupt_rate=0.2
    )
    assert a == b
    assert a.faulted_shards
    assert a.faulted_shards <= frozenset(range(100))
    # Disjoint bands: each shard suffers at most one fault kind.
    kinds = [a.crash, a.hang, a.lose_result, a.corrupt, a.poison]
    for i, left in enumerate(kinds):
        for right in kinds[i + 1:]:
            assert not (left & right)
    # A shard's fate is independent of the shard count.
    wider = ChaosSpec.sample(
        42, 200, crash_rate=0.1, hang_rate=0.1, corrupt_rate=0.2
    )
    assert a.crash <= wider.crash and a.corrupt <= wider.corrupt
    with pytest.raises(DataprepError):
        ChaosSpec.sample(42, 10, crash_rate=0.9, hang_rate=0.2)
    with pytest.raises(DataprepError):
        ChaosSpec.sample(42, 10, crash_rate=-0.1)


def test_corrupt_payload_is_rejected_by_the_codec():
    blob = _blob(0)
    bad = corrupt_payload(blob)
    assert bad == corrupt_payload(blob)  # deterministic
    assert len(bad) < len(blob)
    with pytest.raises(CodecError):
        jpeg_codec.decode(bad)
    with pytest.raises(DataprepError):
        corrupt_payload(np.zeros(4))


def test_wrap_loader_identity_without_payload_faults():
    spec = ChaosSpec(seed=7, crash={1})
    assert wrap_loader(_loader, spec, 4) is _loader
    wrapped = wrap_loader(_loader, ChaosSpec(seed=7, corrupt={0}), 4)
    assert wrapped is not _loader
    first = wrapped(0, 4)
    second = wrapped(0, 4)  # transient: second load reads clean bytes
    assert first != second
    assert second == _loader(0, 4)


def test_drill_covers_every_failure_mode():
    from repro.dataprep.drill import run_drill

    results = run_drill(num_samples=12, batch_size=4, num_workers=2)
    names = [r.name for r in results]
    assert names == [
        "crash", "hang", "lost-result", "corrupt-transient", "poison",
        "crash-persistent",
    ]
    for r in results:
        assert r.ok, f"{r.name}: {r.error}"
