"""Simulation service under concurrent load: dedup, identity, latency.

The service's promise (ISSUE 8) is that putting a broker between callers
and the engines changes *when* results are computed — never *what*.
This benchmark replays the mixed trace from 16 concurrent clients with
every request duplicated (50% duplicates) and gates all three halves of
the contract:

* **bit-identity** — every response payload equals a direct
  ``execute_request`` evaluation of the same request object, canonical
  JSON, byte for byte (checked inside the harness for all responses);
* **dedup accounting** — the cold server prices every distinct work
  item (evaluation point or whole fault-schedule request) exactly once
  and answers every request from the memo, by coalescing, or by
  computing (``memo + coalesced + computed == total``);
* **latency** — p50/p99 (stored as 1/latency rates so the standard
  regression tolerance applies unchanged) and request throughput must
  stay within tolerance of the committed baseline in
  ``benchmarks/baselines/service_latency.json``.

A second gate targets cross-request batching: the all-distinct
252-request analytical trace, pipelined from 16 clients, must answer
bit-identically with every point priced by a kernel dispatch and > 4
points per dispatch, and its p50/p99/throughput rates gate against
``benchmarks/baselines/service_batch.json``.

Refresh the baselines on a quiet machine with::

    PYTHONPATH=src python -m repro bench-service --update
    PYTHONPATH=src python -m repro bench-service --distinct --update
"""

from benchmarks._harness import emit
from repro import perf
from repro.analysis.tables import format_table
from repro.service import ServiceConfig
from repro.service.bench import (
    BASELINE_PATH,
    BATCH_BASELINE_PATH,
    run_distinct_test,
    run_load_test,
)

#: The acceptance load: N>=16 clients, dup_factor=2 -> 50% duplicates.
N_CLIENTS = 16
DUP_FACTOR = 2

#: Floor on the duplicate traffic served without an engine run.  On a
#: cold server the accounting invariant already forces coalesced + memo
#: == duplicates; this guards the *reporting* of the split.
MIN_DEDUPED_FRACTION = 1.0


def test_service_load_vs_baseline(benchmark, capsys):
    report = benchmark.pedantic(
        lambda: run_load_test(
            n_clients=N_CLIENTS,
            dup_factor=DUP_FACTOR,
            config=ServiceConfig(max_workers=4, max_pending=4096),
        ),
        rounds=1,
        iterations=1,
    )

    # The harness has already verified bit-identity for every response
    # and raised on any divergence; re-assert the headline accounting.
    assert report.duplicates * 2 == report.total  # 50% duplicates
    assert report.priced == report.items
    deduped = report.coalesced + report.memo_hits
    assert deduped >= MIN_DEDUPED_FRACTION * report.duplicates
    assert report.errors == 0 and report.rejected == 0

    measurements = report.measurements()
    baseline = perf.load_baseline(BASELINE_PATH)
    rows = [
        [
            m.name,
            f"{m.best_seconds * 1000:.2f}",
            f"{m.samples_per_s:,.1f}",
            f"{baseline.get(m.name, float('nan')):,.1f}",
        ]
        for m in measurements
    ]
    emit(
        capsys,
        f"Service load test ({N_CLIENTS} clients, "
        f"{report.duplicates}/{report.total} duplicates)",
        format_table(
            ["measurement", "seconds*1e3", "rate", "baseline"], rows
        )
        + "\n\n"
        + report.summary(),
    )
    assert baseline, f"missing baseline {BASELINE_PATH}"
    failures = perf.regressions(measurements, baseline)
    assert not failures, "; ".join(failures)


#: The distinct-point acceptance gate: stitched points per dispatch.
MIN_POINTS_PER_DISPATCH = 4.0


def test_service_batch_vs_baseline(benchmark, capsys):
    report = benchmark.pedantic(
        lambda: run_distinct_test(
            n_clients=N_CLIENTS,
            min_points_per_dispatch=MIN_POINTS_PER_DISPATCH,
        ),
        rounds=1,
        iterations=1,
    )

    # The harness asserted identity and kernel routing; re-assert the
    # headline accounting here.
    assert report.batch_kernel == report.items == report.total
    assert report.points_per_dispatch > MIN_POINTS_PER_DISPATCH

    measurements = report.measurements()
    baseline = perf.load_baseline(BATCH_BASELINE_PATH)
    rows = [
        [
            m.name,
            f"{m.best_seconds * 1000:.2f}",
            f"{m.samples_per_s:,.1f}",
            f"{baseline.get(m.name, float('nan')):,.1f}",
        ]
        for m in measurements
    ]
    emit(
        capsys,
        f"Service cross-request batching ({N_CLIENTS} clients, "
        f"{report.total} distinct requests)",
        format_table(
            ["measurement", "seconds*1e3", "rate", "baseline"], rows
        )
        + "\n\n"
        + report.summary(),
    )
    assert baseline, f"missing baseline {BATCH_BASELINE_PATH}"
    failures = perf.regressions(measurements, baseline)
    assert not failures, "; ".join(failures)
