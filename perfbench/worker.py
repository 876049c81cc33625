"""The measured process for the in-process workloads (prep-image,
sweep-grid).

``python3 perfbench/worker.py setup <workload> --inputs DIR`` times one
cold set-up; ``... run <workload> --inputs DIR --seed N --seconds S
--trace 0|1`` runs the timed loop.  Both print one JSON object on their
last line.  Inputs come from files written by ``gen.py`` in another
process, so generation never counts toward this process's time or peak
RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchlib
from benchlib import ProbeTrack, SpanLog, emit, own_peak_rss_mb, percentile

BATCH = 32
#: Per-batch latency tail reported for prep-image: p80 needs >= 50 batches.
PREP_TAIL_Q = 80.0
#: Per-grid latency tail reported for sweep-grid: the median over windows
#: of 200 grids of each window's p95.
SWEEP_TAIL_Q = 95.0
#: Sampled outputs checked against the reference paths.
PREP_CHECKED_BATCHES = 2
SWEEP_CHECKED_GRIDS = 8
#: Grids run before the clock starts (imports, first builds, first cache files).
SWEEP_WARM_GRIDS = 8
#: A run stops at this multiple of ``--seconds`` even if it is short of
#: the samples its tail needs, and then fails.
HARD_STOP = 4.0


class CorpusLoader:
    """``loader(start, count)`` over the generated corpus, cycling."""

    def __init__(self, blobs: List[bytes]) -> None:
        self.blobs = blobs

    def __call__(self, start: int, count: int) -> List[bytes]:
        n = len(self.blobs)
        return [self.blobs[(start + i) % n] for i in range(count)]


def _timing(ops: List[Tuple[float, float]], probes: ProbeTrack, work: List[int]) -> Dict:
    """Raw and host-scaled throughput and latencies of timed operations."""
    durs = np.array([e - s for s, e in ops])
    factors = probes.factors([(s + e) / 2 for s, e in ops])
    scaled = durs * factors
    total_work = float(sum(work))
    return {
        "raw": {"throughput": total_work / durs.sum(), "lat": durs * 1e3},
        "scaled": {"throughput": total_work / scaled.sum(), "lat": scaled * 1e3},
        "measured_s": float(durs.sum()),
        "samples": len(ops),
    }


def _latency_block(timing: Dict, tail_q: Optional[float]) -> Dict:
    """Throughput, p50 and (unless ``tail_q`` is None) the windowed tail,
    raw and host-scaled."""
    out = {}
    for kind in ("raw", "scaled"):
        lat = timing[kind]["lat"]
        out[kind] = {
            "throughput_per_s": timing[kind]["throughput"],
            "latency_p50_ms": percentile(lat, 50),
        }
        if tail_q is not None:
            out[kind]["latency_tail_ms"] = benchlib.windowed_percentile(lat, tail_q)
    return out


def _latency_counts(n: int, tail_q: Optional[float]) -> str:
    """The sample counts behind the reported percentiles."""
    text = f"p50 over {n} samples"
    if tail_q is not None:
        windows = n // benchlib.min_samples_for(tail_q)
        text += f"; p{tail_q:g} the median of {windows} windows of {n // windows}"
    return text


# -- prep-image ---------------------------------------------------------------


def _prep_setup(inputs: Path) -> Dict:
    from repro.dataprep import PrepEngine, image_pipeline

    from gen import read_blobs

    loader = CorpusLoader(read_blobs(inputs / "corpus.bin"))
    probes = ProbeTrack()
    scale = probes.scale_now()
    start = time.perf_counter()
    engine = PrepEngine(image_pipeline(), loader, 4 * BATCH, BATCH, seed=0)
    batches = engine.batches()
    next(batches)
    elapsed = time.perf_counter() - start
    batches.close()
    return {"setup_s": elapsed, "scaled_s": elapsed * scale, "probe": probes.summary()}


def _prep_loop(engine, seconds: float, min_ops: int, log=None, keep=()):
    """Pull batches until ``seconds`` of measured time and ``min_ops``
    batches; probe the host before every batch."""
    probes = ProbeTrack(every_s=0.0)
    ops: List[Tuple[float, float]] = []
    kept = {}
    measured = 0.0
    batches = engine.batches()
    wall0 = time.perf_counter()
    while measured < seconds or len(ops) < min_ops:
        if measured > HARD_STOP * seconds:
            raise RuntimeError(f"only {len(ops)} batches in {measured:.1f}s")
        probes.take(force=True)
        with log.span("dataprep.engine.next") if log else contextlib.nullcontext():
            start = time.perf_counter()
            batch = next(batches)
            end = time.perf_counter()
        ops.append((start, end))
        measured += end - start
        if len(ops) - 1 in keep:
            # Keep only a digest: holding whole batches would inflate the
            # peak RSS this process reports.
            kept[len(ops) - 1] = (batch.start, batch.count, *_digest(batch.data))
        del batch
    probes.take(force=True)
    wall = time.perf_counter() - wall0 - sum(probes.ms) / 1e3
    batches.close()
    return ops, probes, kept, wall


def _digest(data: np.ndarray) -> Tuple:
    """What the check compares: shape, dtype, and a hash of the values
    with negative zeros folded to positive (``x + 0.0``), so equal values
    hash equal, as ``np.array_equal`` compares them; plus the count of
    negative zeros, reported as a diagnostic.  Works one sample at a time
    so the check adds no batch-sized array to the peak RSS."""
    sha = hashlib.sha256()
    neg_zeros = 0
    for sample in data:
        if sample.dtype.kind == "f":
            neg_zeros += int(np.count_nonzero((sample == 0) & np.signbit(sample)))
            sample = sample + 0.0
        sha.update(sample.tobytes())
    return (data.shape, str(data.dtype), sha.hexdigest()), neg_zeros


def _prep_check(pipe, loader, seed: int, kept: Dict) -> Tuple[int, int]:
    """Batches whose values differ from ``run_batch_reference``'s, and how
    many more negative zeros the checked batches held than the reference."""
    from repro.dataprep import sample_rng

    failed = zeros = 0
    for start, count, digest, neg_zeros in kept.values():
        rngs = [sample_rng(seed, start + i) for i in range(count)]
        ref_digest, ref_zeros = _digest(
            np.stack(pipe.run_batch_reference(loader(start, count), rngs))
        )
        failed += ref_digest != digest
        zeros += neg_zeros - ref_zeros
    return failed, zeros


def _prep_run(inputs: Path, seed: int, seconds: float, trace: bool) -> Dict:
    from repro import cache, obs
    from repro.dataprep import PrepEngine, image_pipeline

    from gen import read_blobs

    loader = CorpusLoader(read_blobs(inputs / "corpus.bin"))
    pipe = image_pipeline()

    def engine(engine_seed: int) -> "PrepEngine":
        return PrepEngine(pipe, loader, 10_000 * BATCH, BATCH, seed=engine_seed)

    warm = engine(seed + 1).batches()
    for _ in range(2):
        next(warm)
    warm.close()

    # The traced run reports no tail, so its two phases need only p50.
    phase = seconds / 2 if trace else seconds
    min_ops = benchlib.min_samples_for(50 if trace else PREP_TAIL_Q)
    keep = set(random.Random(seed).sample(range(min_ops), PREP_CHECKED_BATCHES))
    ops, probes, kept, wall = _prep_loop(engine(seed), phase, min_ops, keep=keep)
    timing = _timing(ops, probes, [BATCH] * len(ops))
    peak = own_peak_rss_mb()
    result = {
        "attempted": len(ops),
        "timing": _latency_block(timing, None if trace else PREP_TAIL_Q),
        "samples": timing["samples"],
        "measured_s": timing["measured_s"],
        "probe": probes.summary(),
        "peak_rss_mb": peak,
    }
    checked = dict(kept)
    if trace:
        import shims as shimmod

        log = SpanLog()
        shims = shimmod.Shims(log)
        registry = obs.MetricsRegistry()
        cache.clear_memo()  # the traced phase compiles its plan again
        shims.install_prep()
        try:
            with obs.session(metrics=registry):
                t_ops, t_probes, _, t_wall = _prep_loop(
                    engine(seed + 2), phase, min_ops, log=log
                )
        finally:
            shims.remove()
        t_timing = _timing(t_ops, t_probes, [BATCH] * len(t_ops))
        result["trace"] = _prep_layers(log, shims.counts, registry, t_wall)
        result["trace"]["throughput_traced"] = t_timing["scaled"]["throughput"]
        result["trace"]["throughput_untraced"] = timing["scaled"]["throughput"]
        result["attempted"] += len(t_ops)
    result["failed"], zeros = _prep_check(pipe, loader, seed, checked)
    result["checked"] = len(checked)
    result["diagnostics"] = {
        "latency": _latency_counts(len(ops), None if trace else PREP_TAIL_Q),
        "check.extra_negative_zeros": zeros,
    }
    return result


def _prep_layers(log: SpanLog, counts: Dict, registry, wall: float) -> Dict:
    layers = benchlib.layer_totals(log.spans)

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def self_(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    manifest = registry.to_manifest()
    c = manifest["counters"]
    compile_ms = manifest["histograms"].get("prep.plan_compile_ms", {}).get("total", 0.0)
    return {
        "metrics": {
            "dataprep.jpeg.decode_busy_s": total("dataprep.jpeg.decode"),
            "dataprep.jpeg.images": counts.get("jpeg.images", 0),
            "dataprep.plan.compile_s": compile_ms / 1e3,
            "dataprep.plan.compiles": c.get("prep.plan_compile_total", 0),
            "dataprep.plan.augment_busy_s": total("dataprep.plan.augment"),
            "dataprep.plan.copy_out_s": self_("dataprep.plan.run"),
            "dataprep.plan.fallbacks": counts.get("plan.fallbacks", 0),
            "dataprep.engine.batch_wait_s": total("dataprep.engine.next"),
            "dataprep.engine.overhead_s": total("dataprep.engine.next")
            - total("dataprep.engine.prepare_shard"),
            "prep.batches": c.get("prep.batches", 0),
            "prep.samples": c.get("prep.samples", 0),
            "prep.retries": c.get("prep.retries", 0),
        },
        "layers": layers,
        "wall_s": wall,
    }


# -- sweep-grid ---------------------------------------------------------------


def _grid_request(grid: Dict):
    from repro import api

    return api.SweepRequest(**grid)


def _sweep_setup(inputs: Path) -> Dict:
    import json

    from repro import api
    from repro.cache import ResultCache

    grid = _grid_request(json.loads((inputs / "grids.json").read_text())["setup"])
    tmp = Path(tempfile.mkdtemp(dir=inputs, prefix="setup-cache-"))
    try:
        probes = ProbeTrack()
        scale = probes.scale_now()
        start = time.perf_counter()
        api.sweep(grid, cache=ResultCache(tmp))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"setup_s": elapsed, "scaled_s": elapsed * scale, "probe": probes.summary()}


def _sweep_loop(grids, store, seconds: float, min_ops: int, shims=None, keep=()):
    """Run the warm-up grids, then time grids until ``seconds`` of
    measured time and ``min_ops`` grids.  ``shims``, if given, are
    installed after the warm-up, so only the timed region is traced."""
    from repro import api

    probes = ProbeTrack()
    ops: List[Tuple[float, float]] = []
    points: List[int] = []
    kept = {}
    fallbacks = 0
    measured = 0.0
    for i in range(SWEEP_WARM_GRIDS):
        api.sweep(grids[i], cache=store)
    log = None
    if shims is not None:
        shims.install_core()
        log = shims.log
    hits_before = store.stats.hits
    lookups_before = store.stats.hits + store.stats.misses
    stores_before = store.stats.stores
    i = SWEEP_WARM_GRIDS
    wall0 = time.perf_counter()
    while measured < seconds or len(ops) < min_ops:
        if measured > HARD_STOP * seconds or i >= len(grids):
            raise RuntimeError(f"only {len(ops)} grids in {measured:.1f}s")
        probes.take()
        with log.span("api.sweep") if log else contextlib.nullcontext():
            start = time.perf_counter()
            outcome = api.sweep(grids[i], cache=store)
            end = time.perf_counter()
        ops.append((start, end))
        points.append(len(outcome.points))
        fallbacks += outcome.batch_fallbacks
        measured += end - start
        if i in keep:
            kept[i] = outcome
        i += 1
    probes.take(force=True)
    wall = time.perf_counter() - wall0 - sum(probes.ms) / 1e3
    lookups = store.stats.hits + store.stats.misses - lookups_before
    counters = {
        "hit_ratio": (store.stats.hits - hits_before) / lookups if lookups else 0.0,
        "stores": store.stats.stores - stores_before,
        "fallbacks": fallbacks,
    }
    return ops, points, probes, kept, wall, counters


def _sweep_check(grids, kept: Dict) -> int:
    from repro import api, cache

    failed = 0
    for i, outcome in kept.items():
        reference = api.sweep(grids[i], batch=False)
        got = [cache.fingerprint(r.to_dict()) for r in outcome.results]
        want = [cache.fingerprint(r.to_dict()) for r in reference.results]
        if got != want:
            failed += 1
    return failed


def _sweep_run(inputs: Path, seed: int, seconds: float, trace: bool) -> Dict:
    import json

    from repro import cache
    from repro.cache import ResultCache

    grids = [
        _grid_request(g)
        for g in json.loads((inputs / "grids.json").read_text())["grids"]
    ]
    min_ops = benchlib.min_samples_for(SWEEP_TAIL_Q)
    keep = set(
        random.Random(seed).sample(
            range(SWEEP_WARM_GRIDS, SWEEP_WARM_GRIDS + min_ops), SWEEP_CHECKED_GRIDS
        )
    )
    phase = seconds / 2 if trace else seconds
    cache_dir = Path(tempfile.mkdtemp(dir=inputs, prefix="sweep-cache-"))
    ops, points, probes, kept, wall, counters = _sweep_loop(
        grids, ResultCache(cache_dir), phase, min_ops, keep=keep
    )
    timing = _timing(ops, probes, points)
    result = {
        "attempted": len(ops),
        "timing": _latency_block(timing, None if trace else SWEEP_TAIL_Q),
        "samples": timing["samples"],
        "measured_s": timing["measured_s"],
        "probe": probes.summary(),
        "peak_rss_mb": own_peak_rss_mb(),
        "points": int(sum(points)),
    }
    if trace:
        import shims as shimmod

        shims = shimmod.Shims(SpanLog())
        # A second, identical pass from a cold memo and an empty cache, so
        # the traced phase sees the same mix as the untraced one.
        cache.clear_memo()
        store = ResultCache(Path(tempfile.mkdtemp(dir=inputs, prefix="sweep-cache-")))
        try:
            t_ops, t_points, t_probes, _, t_wall, t_counters = _sweep_loop(
                grids, store, phase, min_ops, shims=shims
            )
        finally:
            shims.remove()
        t_timing = _timing(t_ops, t_probes, t_points)
        result["trace"] = _core_layers(shims.log, shims.counts, t_wall)
        m = result["trace"]["metrics"]
        m["cache.hit_ratio"] = t_counters["hit_ratio"]
        m["cache.stores"] = t_counters["stores"]
        m["cache.quarantined"] = store.stats.quarantined
        m["sweep.batch_fallbacks"] = t_counters["fallbacks"]
        result["trace"]["throughput_traced"] = t_timing["scaled"]["throughput"]
        result["trace"]["throughput_untraced"] = timing["scaled"]["throughput"]
        result["attempted"] += len(t_ops)
    result["failed"] = _sweep_check(grids, kept)
    result["checked"] = len(kept)
    result["diagnostics"] = {
        "latency": _latency_counts(len(ops), None if trace else SWEEP_TAIL_Q),
        "cache.hit_ratio": f"{counters['hit_ratio']:.3f}",
    }
    return result


def _core_layers(log: SpanLog, counts: Dict, wall: float) -> Dict:
    import shims as shimmod

    layers = benchlib.layer_totals(log.spans)
    metrics = shimmod.core_metrics(layers, counts)
    return {"metrics": metrics, "layers": layers, "wall_s": wall}


# -- entry --------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=("prep-image", "sweep-grid"))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    benchlib.pin(0, benchlib.PROGRAM_CPU)
    if args.mode == "setup":
        if args.workload == "prep-image":
            out = _prep_setup(args.inputs)
        else:
            out = _sweep_setup(args.inputs)
    elif args.workload == "prep-image":
        out = _prep_run(args.inputs, args.seed, args.seconds, bool(args.trace))
    else:
        out = _sweep_run(args.inputs, args.seed, args.seconds, bool(args.trace))
    emit(out)


if __name__ == "__main__":
    main()
