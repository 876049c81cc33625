"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
import threading
import time

import pytest

import benchlib
import gen
from benchlib import (
    InsufficientSamples,
    QuiescenceError,
    SpanLog,
    min_samples_for,
    percentile,
    probe,
    self_times,
)


# -- generated inputs ---------------------------------------------------------


def test_prep_corpus_is_deterministic_per_seed():
    first = gen.prep_corpus(7, count=3)
    assert first == gen.prep_corpus(7, count=3)
    assert first != gen.prep_corpus(8, count=3)
    assert len(set(first)) == 3


def test_sweep_grids_are_deterministic_and_half_seen():
    grids = gen.sweep_grids(5, count=300)
    assert grids == gen.sweep_grids(5, count=300)
    assert grids != gen.sweep_grids(6, count=300)
    seen, overlap, total = set(), 0, 0
    for grid in grids:
        points = {
            (w, a, s, grid["batch_size"], grid["engine"])
            for w in grid["workloads"]
            for a in grid["archs"]
            for s in grid["scales"]
        }
        assert 2 <= len(grid["workloads"]) <= 4 and 2 <= len(grid["archs"]) <= 4
        assert 3 <= len(grid["scales"]) <= 6
        assert points - seen, "every grid must add new points"
        overlap += len(points & seen)
        total += len(points)
        seen |= points
    assert 0.3 < overlap / total < 0.6


def test_service_trace_is_deterministic_and_distinct():
    trace = gen.service_trace(3, open_rate=300.0, open_s=1.0, sat_requests=400)
    assert trace == gen.service_trace(3, open_rate=300.0, open_s=1.0, sat_requests=400)
    assert trace != gen.service_trace(4, open_rate=300.0, open_s=1.0, sat_requests=400)
    entries = trace["open_loop"] + trace["saturation"]
    unique = [e for e in entries if e["kind"] != "hot"]
    keys = [json.dumps(e["req"], sort_keys=True) for e in unique]
    assert len(set(keys)) == len(keys)
    dues = [e["due"] for e in trace["open_loop"]]
    assert dues == sorted(dues) and dues[-1] < 1.0


def test_generator_files_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, str(benchlib.ROOT / "perfbench" / "gen.py"),
             "sweep-grid", "--seed", "11", "--out", str(out)],
            check=True,
            env=benchlib.child_env(),
            stdout=subprocess.DEVNULL,
        )
        outs.append((out / "grids.json").read_bytes())
    assert outs[0] == outs[1]


# -- percentiles --------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1, 21)), 50) == 10
    assert min_samples_for(99) == 1000
    assert min_samples_for(50) == 20
    assert min_samples_for(80) == 50


# -- span arithmetic ----------------------------------------------------------


def test_self_time_is_span_minus_union_of_children():
    spans = [
        (1, 0, "root", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 4.0, None),
        (3, 1, "b", 3.0, 6.0, None),   # overlaps a
        (4, 1, "c", 8.0, 12.0, None),  # runs past the root: clipped
        (5, 2, "a.child", 2.0, 3.0, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)


def test_wrapped_calls_nest_under_the_open_span():
    log = SpanLog()
    inner = log.wrap(lambda: time.sleep(0.01), "inner")
    with log.span("outer"):
        inner()
    (inner_span, outer_span) = log.spans
    assert inner_span[2] == "inner" and outer_span[2] == "outer"
    assert inner_span[1] == outer_span[0]
    totals = benchlib.layer_totals(log.spans)
    assert totals["outer"]["self_s"] < totals["outer"]["total_s"]


def test_coverage_counts_only_the_named_layers():
    import shims

    spans = [
        (1, 0, "api.sweep", 0.0, 10.0, None),         # unattributed root
        (2, 1, "cache.key", 0.0, 3.0, None),
        (3, 1, "core.analytical_batch.kernel", 3.0, 6.0, None),
        (4, 3, "core.server.build", 4.0, 5.0, None),
    ]
    layers = benchlib.layer_totals(spans)
    by_layer = shims.self_time_by_layer(layers)
    assert by_layer["core.sweeps"] == pytest.approx(4.0)
    assert by_layer["cache"] == pytest.approx(3.0)
    assert by_layer["core.analytical_batch"] == pytest.approx(2.0)
    assert shims.coverage(layers, 10.0) == pytest.approx(0.6)


# -- quiescence guard ---------------------------------------------------------


def test_quiescence_guard_passes_on_an_idle_process():
    assert probe() > 0


def test_quiescence_guard_trips_on_background_cpu():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        # The probe's own work sleeps, so the spinner gets the CPU.
        with pytest.raises(QuiescenceError):
            probe(work=lambda: time.sleep(0.05))
    finally:
        stop.set()
        spinner.join(timeout=10)
    assert not spinner.is_alive()


# -- the definition -----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_run_py_prints():
    import run

    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(benchlib.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
